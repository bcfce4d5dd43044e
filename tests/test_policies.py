"""Logging policies: constant, grouped, margin-based, and table lookup, each
scoring a block of rows, compared with the per-instance formulas."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import idbal
from idbal import policies
from idbal.data import (
    FeatureVector,
    LabeledRows,
    SyntheticSpec,
    generate_synthetic,
    parse_sparse_dataset,
    row_keys,
    split_dataset,
)
from idbal.hypotheses import LinearModel
from idbal.policies import (
    IdenticalPolicy,
    MarginPolicy,
    TablePolicy,
    UniformGroupsPolicy,
    calibrate_scale,
    fit_coarse_model,
    load_table_policy,
    policy_prob,
)
from idbal.rng import child_seed

from reference import certainty_prob, sparse_libsvm_text, stack_rows, uncertainty_prob


def _vec(seed: int, dim: int = 4) -> FeatureVector:
    rng = np.random.default_rng(seed)
    return FeatureVector({i + 1: float(v) for i, v in enumerate(rng.uniform(-1, 1, dim))})


def _labeled(matrix) -> LabeledRows:
    """CSR rows as a policy scores them, every label 0."""
    return LabeledRows(matrix, np.zeros(matrix.shape[0], dtype=np.int8))


def _rows(*xs: FeatureVector) -> LabeledRows:
    return _labeled(stack_rows(xs, max(1, *(x.items[-1][0] if x.items else 0 for x in xs))))


class TestIdentical:
    def test_constant(self):
        p = IdenticalPolicy(0.005)
        assert p.probs(_rows(_vec(0), _vec(1))).tolist() == [0.005, 0.005]

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            IdenticalPolicy(-0.1)
        with pytest.raises(ValueError):
            IdenticalPolicy(1.5)


class TestUniformGroups:
    def test_values_come_from_the_three_levels(self):
        policy = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=0)
        seen = set(policy.probs(_rows(*(_vec(i) for i in range(200)))).tolist())
        assert seen == {0.005, 0.05, 0.5}

    @pytest.mark.parametrize("levels", [(-0.1, 0.05, 0.5), (0.005, 1.5, 0.5), (0.005, 0.05, math.nan)],
                             ids=["negative-low", "mid-over-1", "nan-high"])
    def test_probability_domain(self, levels):
        with pytest.raises(ValueError, match="group probabilities must be probabilities"):
            UniformGroupsPolicy(*levels, group_seed=0)

    def test_group_depends_on_seed(self):
        rows = _rows(*(_vec(i) for i in range(50)))
        a = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=0).probs(rows).tolist()
        b = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=1).probs(rows).tolist()
        assert a != b

    def test_groups_roughly_balanced(self):
        counts = np.zeros(3)
        for i in range(3000):
            counts[child_seed(0, _vec(i).key()) % 3] += 1
        assert counts.min() > 800

    def test_probabilities_are_pinned(self):
        # a change to the group hash would move every uniform-groups sweep
        rows = generate_synthetic(SyntheticSpec(count=24, dim=3, seed=4))
        low, mid, high = 0.005, 0.05, 0.5
        assert policy_prob(UniformGroupsPolicy(low, mid, high, group_seed=9), rows).tolist() == [
            low, mid, mid, mid, mid, low, mid, low, mid, mid, low, mid,
            high, low, high, low, low, low, low, low, high, mid, mid, low,
        ]


class TestMarginPolicies:
    def test_uncertainty_peaks_at_the_boundary(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        policy = MarginPolicy("uncertainty", 2.0, model)
        on_boundary = FeatureVector({2: 1.0})  # weight on index 1 is the only nonzero
        far = FeatureVector({1: 5.0})
        near, away = policy.probs(_labeled(stack_rows([on_boundary, far], 4))).tolist()
        assert near == 1.0
        assert away < 1e-8

    def test_uncertainty_decreasing_in_margin(self):
        model = LinearModel(np.array([0.0, 1.0]))
        policy = MarginPolicy("uncertainty", 1.0, model)
        probs = policy.probs(_rows(*(FeatureVector({1: v}) for v in (0.1, 0.5, 1.0, 2.0)))).tolist()
        assert probs == sorted(probs, reverse=True)

    def test_certainty_zero_at_boundary_and_clamped(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0]))
        policy = MarginPolicy("certainty", 3.0, model)
        assert policy.probs(_rows(FeatureVector({2: 1.0}), FeatureVector({1: 100.0}))).tolist() == [0.0, 1.0]

    def test_certainty_increasing_in_margin(self):
        model = LinearModel(np.array([0.0, 1.0]))
        policy = MarginPolicy("certainty", 0.5, model)
        probs = policy.probs(_rows(*(FeatureVector({1: v}) for v in (0.1, 0.5, 1.0)))).tolist()
        assert probs == sorted(probs)

    def test_rows_wider_than_the_model_score_its_own_columns(self):
        # a feature the coarse model never saw has weight 0; the norm stays
        # the model's own
        model = LinearModel(np.array([0.5, -2.0, 1.0]))
        xs = [FeatureVector({1: 1.0, 5: 3.0}), FeatureVector({6: 2.0}), FeatureVector({2: 0.25})]
        expected = [uncertainty_prob(1.5, model.weights, x) for x in xs]
        assert MarginPolicy("uncertainty", 1.5, model).probs(_labeled(stack_rows(xs, 6))).tolist() == expected

    @pytest.mark.parametrize("kind, scale, message", [
        ("identical", 1.0, "unknown margin policy kind 'identical'"),
        ("Uncertainty", 1.0, "unknown margin policy kind 'Uncertainty'"),
        ("certainty", -0.5, "scale cannot be negative"),
        ("uncertainty", math.inf, "scale cannot be negative or non-finite, got inf"),
        ("certainty", math.nan, "scale cannot be negative or non-finite, got nan"),
    ], ids=["other-policy", "capitalised", "negative-scale", "infinite-scale", "nan-scale"])
    def test_rejects_an_unknown_kind_and_a_negative_scale(self, kind, scale, message):
        with pytest.raises(ValueError, match=message):
            MarginPolicy(kind, scale, LinearModel(np.array([0.0, 1.0])))


class TestRowParity:
    """Each row policy against its per-instance formula, compared with ==."""

    def _instances(self, dim: int) -> list[FeatureVector]:
        rng = np.random.default_rng(19)
        xs = [FeatureVector({}), FeatureVector({1: 0.1, 2: 0.2}), FeatureVector({dim: 1e-3})]
        for _ in range(400):
            picked = rng.choice(np.arange(1, dim + 1), size=int(rng.integers(1, dim + 1)), replace=False)
            xs.append(FeatureVector(zip(picked.tolist(), rng.uniform(-1.0, 1.0, picked.size))))
        return xs

    def test_margin_policies_match_the_scalar_formulas(self):
        dim = 12
        xs = self._instances(dim)
        rows = _labeled(stack_rows(xs, dim))
        rng = np.random.default_rng(29)
        models = [LinearModel.zeros(dim), LinearModel(rng.normal(size=dim + 1))]
        models += [LinearModel(rng.normal(size=dim + 1) * 10.0 ** k) for k in (-3, 0, 2)]
        for model in models:
            for scale in (0.0, 0.37, 4.0, 123.456):
                uncertain = [uncertainty_prob(scale, model.weights, x) for x in xs]
                certain = [certainty_prob(scale, model.weights, x) for x in xs]
                assert policy_prob(MarginPolicy("uncertainty", scale, model), rows).tolist() == uncertain
                assert policy_prob(MarginPolicy("certainty", scale, model), rows).tolist() == certain

    def test_uniform_groups_match_the_instance_keys(self):
        xs = self._instances(8)
        policy = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=11)
        expected = [(0.005, 0.05, 0.5)[child_seed(11, x.key()) % 3] for x in xs]
        assert policy_prob(policy, _labeled(stack_rows(xs, 8))).tolist() == expected

    def test_group_scoring_holds_one_block_of_keys(self):
        # the 2,400 logged rows of the 6000x30 paired benchmark; keying them
        # all as Python objects at once peaked at 4.6 MiB
        data = generate_synthetic(SyntheticSpec(count=6000, dim=30, flip_prob=0.1, seed=0))
        rows = data[split_dataset(len(data), (0.2, 0.5), seed=child_seed(0, "synthetic", 0, "split")).logged]
        policy = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=0)
        expected = [(0.005, 0.05, 0.5)[child_seed(0, key) % 3] for key in row_keys(rows.matrix)]
        tracemalloc.start()
        try:
            probs = policy.probs(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2400 and probs.tolist() == expected
        assert peak <= 1.5e6

    @pytest.mark.parametrize("name", ["identical", "uniform", "uncertainty", "certainty", "table"])
    def test_a_cut_scores_as_the_dataset_does(self, name):
        # a repeat scores the whole dataset once and cuts q0 at the split's
        # positions, which gives the split's own scores only if each row is
        # scored on its own
        data = parse_sparse_dataset(sparse_libsvm_text(seed=7, rows=700, dim=40, nnz=6))
        # 30 features against the rows' 40, so the margins drop columns
        model = LinearModel(np.random.default_rng(31).normal(size=31))
        policy = {
            "identical": IdenticalPolicy(0.05),
            "uniform": UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=3),
            "uncertainty": MarginPolicy("uncertainty", 0.37, model),
            "certainty": MarginPolicy("certainty", 4.0, model),
            "table": TablePolicy({key: 1.0 / (i % 7 + 1) for i, key in enumerate(row_keys(data.matrix))}),
        }[name]
        q0 = policy_prob(policy, data)
        assert len(set(q0.tolist())) > 1 or name == "identical"
        split = split_dataset(len(data), (0.2, 0.5), seed=11)
        for positions in (split.logged, split.online, split.test):
            assert policy_prob(policy, data[positions]).tolist() == q0[positions].tolist()

    def test_row_keys_match_instance_keys(self):
        # 0.1 and 1e-3 are floats whose numpy scalar repr differs from repr()
        xs = self._instances(30)
        assert list(row_keys(stack_rows(xs, 30))) == [x.key() for x in xs]


class TestTablePolicy:
    def test_lookup_and_missing(self):
        x = _vec(0)
        policy = TablePolicy({x.key(): 0.25})
        assert policy.probs(_rows(x, x)).tolist() == [0.25, 0.25]
        assert policy.probs(_rows(x)).tolist() == [0.25]
        with pytest.raises(ValueError, match="not covered"):
            policy.probs(_rows(x, _vec(1)))

    @pytest.mark.parametrize("p", [-0.25, 1.5, math.nan])
    def test_probability_domain(self, p):
        with pytest.raises(ValueError, match="for '1:0.5' out of range"):
            TablePolicy({"1:0.5": p})

    def test_lookup_across_key_blocks(self):
        # 600 rows span three blocks of keys; the last row alone is missing
        rows = generate_synthetic(SyntheticSpec(count=600, dim=3, seed=5))
        keys = list(row_keys(rows.matrix))
        policy = TablePolicy({key: 1.0 / (i % 7 + 1) for i, key in enumerate(keys[:-1])})
        assert policy.probs(rows[:-1]).tolist() == [1.0 / (i % 7 + 1) for i in range(599)]
        with pytest.raises(ValueError, match="not covered"):
            policy.probs(rows)

    def test_load_reads_canonical_keys(self):
        xs = [_vec(i) for i in range(5)]
        probabilities = [1.0 / (i + 2) for i in range(5)]
        lines = [f"{x.key()},{p!r}" for x, p in zip(xs, probabilities)]
        back = load_table_policy("\n".join(["instance,probability", *lines]) + "\n")
        assert back.probs(_rows(*xs)).tolist() == probabilities

    @pytest.mark.parametrize("cell", ['"1:0.25\n2:0.5"', '"1:0.25\r\n 2:0.5\n"', '" 2:0.5\t1:0.25 3:0 "'],
                             ids=["line-break", "crlf-and-indent", "order-zero-and-tabs"])
    def test_token_layout_does_not_change_the_key(self, cell):
        policy = load_table_policy(f"instance,probability\n{cell},0.5\n")
        assert policy.probs(_rows(FeatureVector({1: 0.25, 2: 0.5}))).tolist() == [0.5]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("abc:0.5,0.5", "index 'abc' is not an integer"),
            ("1:abc,0.5", "value 'abc' is not numeric"),
            ("0:0.5,0.5", "index 0 is not positive"),
            ("1:0.5,abc", "could not convert string to float: 'abc'"),
            ("1:0.5,1.5", "probability '1.5' outside"),
            ("1:0.5,nan", "probability 'nan' outside"),
        ],
        ids=["bad-index", "bad-value", "non-positive-index", "bad-probability", "probability-above-1", "nan-probability"],
    )
    def test_load_names_the_bad_row(self, row, message):
        text = f"instance,probability\n2:1.0,0.5\n{row}\n"
        with pytest.raises(ValueError, match=f"^row 3: {message}"):
            load_table_policy(text)

    @pytest.mark.parametrize("text, message", [
        ("", "must start with 'instance,probability'"),
        ("probability,instance\n1:0.5,0.5\n", "must start with 'instance,probability'"),
        ("instance,probability\n1:0.5,0.5,0.25\n", "^row 2: expected 2 columns"),
        ("instance,probability\n1:0.5,0.5\n2:0.5\n", "^row 3: expected 2 columns"),
    ], ids=["empty", "swapped-header", "three-columns", "one-column"])
    def test_load_rejects_a_bad_header_or_width(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_table_policy(text)

    @pytest.mark.parametrize("first, second", [("1:0.5", "1:0.5"), ("2:0.5 1:0.25", "1:0.25 2:0.5 3:0")],
                             ids=["same-text", "same-instance"])
    def test_load_names_a_duplicate_row(self, first, second):
        with pytest.raises(ValueError, match="^row 3: duplicate instance"):
            load_table_policy(f"instance,probability\n{first},0.5\n{second},0.25\n")


class TestPolicyProb:
    def test_rejects_out_of_range(self):
        class Bad:
            def __init__(self, value):
                self.value = value

            def probs(self, rows):
                return np.array([0.5, self.value])

        assert policy_prob(Bad(1.0), None).tolist() == [0.5, 1.0]
        for value in (1.5, -0.25, math.nan):
            with pytest.raises(ValueError):
                policy_prob(Bad(value), None)


class TestCoarseModelAndCalibration:
    def test_coarse_model_deterministic(self):
        data = generate_synthetic(SyntheticSpec(count=500, dim=6, seed=0))
        a = fit_coarse_model(data, seed=1)
        b = fit_coarse_model(data, seed=1)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.steps == 50

    def test_coarse_model_empty_subsample_rejected(self):
        data = generate_synthetic(SyntheticSpec(count=5, dim=3, seed=0))
        with pytest.raises(ValueError):
            fit_coarse_model(data, seed=1)

    def test_calibration_hits_target(self):
        data = generate_synthetic(SyntheticSpec(count=800, dim=6, seed=2))
        model = fit_coarse_model(data, seed=3)
        rows = data[:400]
        for kind in ("uncertainty", "certainty"):
            scale = calibrate_scale(kind, model, rows.matrix, target=0.1)
            mean = float(np.mean(policy_prob(MarginPolicy(kind, scale, model), rows)))
            assert abs(mean - 0.1) < 1e-6

    def test_unreachable_target_rejected(self):
        model = LinearModel(np.zeros(3))  # margin 0 everywhere
        rows = _rows(*(_vec(i, dim=2) for i in range(10))).matrix
        with pytest.raises(ValueError):
            calibrate_scale("certainty", model, rows, target=0.5)

    @pytest.mark.parametrize("kind, count, target, message", [
        ("certainty", 0, 0.1, "calibration needs at least one instance"),
        ("certainty", 10, 0.0, "target must lie strictly between 0 and 1"),
        ("uncertainty", 10, 1.0, "target must lie strictly between 0 and 1"),
        ("certainty", 10, math.nan, "target must lie strictly between 0 and 1"),
        ("identical", 10, 0.1, "unknown margin policy kind 'identical'"),
    ], ids=["no-rows", "target-0", "target-1", "nan-target", "unknown-kind"])
    def test_calibration_rejects_bad_arguments(self, kind, count, target, message):
        rows = _rows(*(_vec(i, dim=2) for i in range(10))).matrix[:count]
        with pytest.raises(ValueError, match=message):
            calibrate_scale(kind, LinearModel(np.array([0.0, 1.0, -1.0])), rows, target)

    def test_target_met_at_scale_zero_returns_zero(self):
        # certainty at scale 0 reveals nothing: a mean of 0 is within the
        # tolerance of a 1e-10 target, so no root is searched for
        rows = _rows(*(_vec(i, dim=2) for i in range(10))).matrix
        assert calibrate_scale("certainty", LinearModel(np.array([0.0, 1.0, -1.0])), rows, 1e-10) == 0.0

    def test_calibrated_scales_are_pinned(self):
        # the values brentq returned while it was imported at module level
        data = generate_synthetic(SyntheticSpec(count=800, dim=6, seed=2))
        model = fit_coarse_model(data, seed=3)
        rows = data.matrix[:400]
        assert calibrate_scale("uncertainty", model, rows, target=0.1) == float.fromhex("0x1.100197bc3414ap+7")
        assert calibrate_scale("certainty", model, rows, target=0.1) == float.fromhex("0x1.1980e74c137e8p-2")


# policies._brentq copies scipy.optimize.brentq step by step; these tests import
# scipy.optimize inside each test, so idbal itself never loads it
def _gap(kind: str, r: np.ndarray, target: float):
    probs = policies._MARGIN_PROBS[kind]
    return lambda scale: sum(probs(scale, r).tolist()) / r.size - target


def _bracket(gap) -> float:
    hi = 1.0
    while gap(0.0) * gap(hi) > 0.0:
        hi *= 2.0
    return hi


class TestBrentPort:
    @pytest.mark.parametrize("xtol", [1e-6, 1e-9, 1e-12])
    def test_matches_brentq_on_calibration_gaps(self, monkeypatch, xtol):
        from scipy.optimize import brentq
        monkeypatch.setattr(policies, "_XTOL", xtol)
        rng = np.random.default_rng(17)
        for trial in range(500):
            kind = ("uncertainty", "certainty")[trial % 2]
            r = rng.exponential(rng.uniform(0.05, 2.0), size=int(rng.integers(1, 60)))
            gap = _gap(kind, r, float(rng.uniform(0.02, 0.98)))
            hi = _bracket(gap)
            assert policies._brentq(gap, 0.0, hi).hex() == brentq(gap, 0.0, hi, xtol=xtol).hex()

    # each takes interpolation steps; all but atan extrapolate, and the cube,
    # exp and flat fifth power also bisect. At a coarse tolerance the choice
    # between a short step and bisection turns on the delta in its bound.
    @pytest.mark.parametrize("f, a, b, xtol", [
        (lambda x: x**3 - 2.0, 0.0, 3.0, 1e-9),
        (lambda x: math.cos(x) - x, 0.0, 2.0, 1e-9),
        (lambda x: math.exp(x) - 10.0, -5.0, 10.0, 1e-9),
        (lambda x: (x - 0.3) ** 5, 0.0, 1.0, 1e-9),
        (lambda x: math.atan(x - 1.7), -100.0, 10.0, 1e-9),
        (lambda x: math.exp(5.0 * x) - math.exp(2.0), 0.0, 1.0, 1e-2),
    ])
    def test_matches_brentq_off_calibration(self, monkeypatch, f, a, b, xtol):
        from scipy.optimize import brentq
        monkeypatch.setattr(policies, "_XTOL", xtol)
        assert policies._brentq(f, a, b).hex() == brentq(f, a, b, xtol=xtol).hex()

    def test_root_on_a_bracket_end(self):
        from scipy.optimize import brentq
        for a, b in ((1.0, 4.0), (-2.0, 1.0)):
            assert policies._brentq(lambda x: x - 1.0, a, b) == brentq(lambda x: x - 1.0, a, b, xtol=1e-9) == 1.0

    @pytest.mark.parametrize("f, b", [
        (lambda x: x + 1.0, 1.0),  # same sign at both ends
        (lambda x: math.nan if x > 0.5 else x - 0.75, 1.0),
        (lambda x: -1.0 if x < 1.0 else 1.0, 1e300),  # a step: 100 halvings of 1e300 are not enough
    ])
    def test_rejects_what_brentq_rejects(self, f, b):
        from scipy.optimize import brentq
        with pytest.raises(ValueError):
            policies._brentq(f, 0.0, b)
        with pytest.raises((ValueError, RuntimeError)):
            brentq(f, 0.0, b, xtol=1e-9)


COLD_CLI = """
import sys
from pathlib import Path
from idbal.cli import main
out = Path(sys.argv[1])
data = ["--data.count", "200", "--data.dim", "4"]
for kind in ("uncertainty", "certainty"):
    assert main(["run", *data, "--policy.name", kind, "--out", str(out / kind)]) == 0
assert main(["sweep", *data, "--policy.name", "uncertainty", "--repeats", "1", "--sweep.algorithms", "passive",
             "--sweep.capacity_grid", "0.64", "--sweep.eta_grid", "0.0064", "--out", str(out / "sweep")]) == 0
assert main(["report", "--records", str(out / "sweep" / "records.json"), "--out", str(out / "report")]) == 0
print(" ".join(sorted({name.split(".")[1] for name in sys.modules if name.startswith("scipy.")})))
"""


def test_cli_loads_no_scipy_subpackage_but_sparse(tmp_path):
    # a fresh interpreter: this process may have loaded other subpackages already
    env = dict(os.environ, PYTHONPATH=str(Path(idbal.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", COLD_CLI, str(tmp_path)], env=env, capture_output=True, text=True,
                          check=True)
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "sparse" in loaded
    assert loaded <= {"sparse", "_lib", "_cyutility", "__config__", "version", "_distributor_init"}
