"""A/B engine tests: one-toggle discipline, deterministic artifacts,
confidence intervals, and the regression gate.

The cheap spec to exercise end-to-end is ``wake_scan`` (a few hundred
barrier rounds); the full GUPS specs are covered by their quick sweeps in
CI and by the unit pieces here.
"""

import copy
import json

import pytest

from repro.bench import ab
from repro.bench.schema import validate_artifact
from repro.runtime.config import Version
from repro.sim.stats import seed_confidence_interval


@pytest.fixture(scope="module")
def wake_scan_doc():
    return ab.run_ab_spec(ab.WAKE_SCAN, quick=True)


class TestSpecValidation:
    def _spec(self, **kw):
        base = dict(
            name="t", description="d", workload="blocked_storm",
            axis="ranks", points=(2,), seeds=(1,),
            toggle={"sched_wake_list": True},
            metrics=(ab.MetricSpec("switches"),),
        )
        base.update(kw)
        return ab.ABSpec(**base)

    def test_minimal_spec_accepted(self):
        self._spec()

    def test_empty_toggle_rejected(self):
        with pytest.raises(ValueError, match="toggle"):
            self._spec(toggle={})

    def test_three_flag_toggle_rejected(self):
        with pytest.raises(ValueError, match="toggle"):
            self._spec(toggle={
                "sched_wake_list": True,
                "obs_spans": True,
                "cx_continuations": True,
            })

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            self._spec(toggle={"not_a_flag": True})

    def test_quick_points_must_be_subset(self):
        with pytest.raises(ValueError, match="subset"):
            self._spec(points=(2, 4), quick_points=(8,))

    def test_quick_seeds_must_be_subset(self):
        with pytest.raises(ValueError, match="subset"):
            self._spec(seeds=(1, 2), quick_seeds=(3,))

    def test_duplicate_metric_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._spec(metrics=(
                ab.MetricSpec("switches"), ab.MetricSpec("switches"),
            ))

    def test_bad_better_rejected(self):
        with pytest.raises(ValueError, match="better"):
            ab.MetricSpec("x", better="sideways")

    def test_vacuous_toggle_rejected(self):
        # sched_wake_list is already True on every build: toggling it
        # *to* True produces identical arms, which arm_flags refuses
        spec = self._spec()
        with pytest.raises(ValueError, match="vacuous|exact arm delta"):
            spec.arm_flags()

    def test_arm_flags_differ_in_exactly_the_toggle(self):
        from repro.runtime.config import flag_delta

        arms = ab.EAGER_DEFER.arm_flags()
        delta = flag_delta(arms["defer"], arms["eager"])
        assert set(delta) == {"eager_notification"}

    def test_registered_specs_are_wellformed(self):
        for spec in ab.select_specs():
            arms = spec.arm_flags()
            assert len(arms) == 2
            assert spec.workload in ab.WORKLOADS

    def test_select_specs_unknown_name(self):
        with pytest.raises(KeyError):
            ab.select_specs(["nope"])


class TestConfidenceInterval:
    def test_single_sample_zero_width(self):
        ci = seed_confidence_interval([5.0])
        assert (ci.mean, ci.lo, ci.hi, ci.n) == (5.0, 5.0, 5.0, 1)

    def test_identical_samples_zero_width(self):
        ci = seed_confidence_interval([3.0, 3.0, 3.0])
        assert ci.lo == ci.hi == ci.mean == 3.0

    def test_varying_samples_bracket_mean(self):
        ci = seed_confidence_interval([1.0, 2.0, 3.0])
        assert ci.lo < ci.mean == 2.0 < ci.hi
        # df=2 -> t=4.303, stdev=1, half = 4.303/sqrt(3)
        assert ci.halfwidth == pytest.approx(4.303 / 3 ** 0.5)


class TestSpeedupOrientation:
    def test_lower_is_better_orients_a_over_b(self):
        m = ab.MetricSpec("x", better="lower")
        assert ab._speedup_samples(m, [10.0], [5.0]) == [2.0]

    def test_higher_is_better_orients_b_over_a(self):
        m = ab.MetricSpec("x", better="higher")
        assert ab._speedup_samples(m, [5.0], [10.0]) == [2.0]

    def test_zero_over_zero_is_parity(self):
        m = ab.MetricSpec("x", better="lower")
        assert ab._speedup_samples(m, [0.0], [0.0]) == [1.0]

    def test_nonzero_over_zero_is_undefined(self):
        m = ab.MetricSpec("x", better="lower")
        assert ab._speedup_samples(m, [3.0], [0.0]) == [None]


class TestWakeScanRun:
    def test_deterministic_block_bit_identical(self, wake_scan_doc):
        doc2 = ab.run_ab_spec(ab.WAKE_SCAN, quick=True)
        assert json.dumps(
            wake_scan_doc["deterministic"], sort_keys=True
        ) == json.dumps(doc2["deterministic"], sort_keys=True)

    def test_pure_pick_swap_measures_exact_parity(self, wake_scan_doc):
        # the honesty check: every deterministic metric exactly 1.00x
        for row in wake_scan_doc["deterministic"]["points"]:
            for name, m in row["metrics"].items():
                assert m["speedup"]["mean"] == 1.0, (row["point"], name)
                assert m["speedup"]["stdev"] == 0.0

    def test_schema_valid(self, wake_scan_doc):
        assert validate_artifact(wake_scan_doc, path="mem") == []

    def test_environment_separated(self, wake_scan_doc):
        from repro.bench.schema import _is_wall_key

        env = wake_scan_doc["environment"]
        assert all("wall_s" in c for c in env["cells"].values())

        def keys_of(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield k
                    yield from keys_of(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys_of(v)

        # no wall-clock/interpreter flavored key anywhere deterministic
        assert not [
            k for k in keys_of(wake_scan_doc["deterministic"])
            if _is_wall_key(k)
        ]

    def test_round_trips(self, wake_scan_doc):
        assert json.loads(json.dumps(wake_scan_doc)) == wake_scan_doc


class TestGate:
    def test_gate_passes_against_itself(self, wake_scan_doc):
        assert ab.gate_ab(
            wake_scan_doc, wake_scan_doc, allow_quick_baseline=True
        ) == []

    def test_quick_baseline_rejected_by_default(self, wake_scan_doc):
        problems = ab.gate_ab(wake_scan_doc, wake_scan_doc)
        assert problems and "quick" in problems[0]

    def test_perturbed_metric_fails(self, wake_scan_doc):
        baseline = copy.deepcopy(wake_scan_doc)
        row = baseline["deterministic"]["points"][0]
        m = row["metrics"]["switches"]
        m["per_seed_b"] = [v * 1.5 for v in m["per_seed_b"]]
        problems = ab.gate_ab(
            wake_scan_doc, baseline, allow_quick_baseline=True
        )
        assert any("switches" in p and "drifted" in p for p in problems)

    def test_drift_within_baseline_ci_passes(self, wake_scan_doc):
        # widen the baseline's interval wider than the injected drift:
        # the gate must tolerate seed-variation-sized movement
        baseline = copy.deepcopy(wake_scan_doc)
        fresh = copy.deepcopy(wake_scan_doc)
        for doc, bump in ((baseline, 0.0), (fresh, 0.5)):
            row = doc["deterministic"]["points"][0]
            m = row["metrics"]["switches"]
            if bump:
                m["per_seed_a"] = [v + bump for v in m["per_seed_a"]]
        row = baseline["deterministic"]["points"][0]
        ci = row["metrics"]["switches"]["a"]
        ci["hi"] = ci["mean"] + 10.0  # halfwidth 10 >> drift 0.5
        assert ab.gate_ab(fresh, baseline, allow_quick_baseline=True) == []

    def test_spec_drift_fails(self, wake_scan_doc):
        baseline = copy.deepcopy(wake_scan_doc)
        baseline["deterministic"]["toggle"] = {"cx_continuations": True}
        problems = ab.gate_ab(
            wake_scan_doc, baseline, allow_quick_baseline=True
        )
        assert any("drifted in 'toggle'" in p for p in problems)

    def test_name_mismatch_fails(self, wake_scan_doc):
        baseline = copy.deepcopy(wake_scan_doc)
        baseline["name"] = "other"
        problems = ab.gate_ab(
            wake_scan_doc, baseline, allow_quick_baseline=True
        )
        assert problems

    def test_quick_subset_gates_against_full_shape(self, wake_scan_doc):
        # a doc with MORE points/seeds than the fresh run still gates on
        # the shared cells (quick-vs-committed-full is the CI shape)
        baseline = copy.deepcopy(wake_scan_doc)
        baseline["quick"] = False
        extra = copy.deepcopy(baseline["deterministic"]["points"][0])
        extra["point"] = 999
        baseline["deterministic"]["points"].append(extra)
        assert ab.gate_ab(wake_scan_doc, baseline) == []


class TestWorkloadHelpers:
    def test_gups_axis_routes_to_config(self):
        run_kw, cfg_kw, variant, by_flag = ab._gups_kwargs(
            64, "batch", 7, {"variant": "agg", "ranks": 8}
        )
        assert cfg_kw["batch"] == 64 and cfg_kw["seed"] == 7
        assert run_kw["ranks"] == 8 and variant == "agg"

    def test_gups_axis_routes_to_run(self):
        run_kw, cfg_kw, _, _ = ab._gups_kwargs(
            16, "ranks", 1, {"variant": "agg"}
        )
        assert run_kw["ranks"] == 16

    def test_gups_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown gups workload"):
            ab._gups_kwargs(1, "batch", 1, {"variant": "agg", "bogus": 1})

    def test_gups_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="cannot sweep"):
            ab._gups_kwargs(1, "bogus_axis", 1, {"variant": "agg"})

    def test_variant_by_flag_picks_by_toggle(self):
        arms = ab.CONT_FUTURE.arm_flags()
        by_flag = ab.CONT_FUTURE.workload_params["variant_by_flag"]
        assert ab._pick_variant(None, by_flag, arms["future"]) == "amo_future"
        assert ab._pick_variant(None, by_flag, arms["cont"]) == "cont"
        # explicit variant wins (contbench's promise rows)
        assert ab._pick_variant("prog_adaptive", by_flag, arms["cont"]) == (
            "prog_adaptive"
        )

    def test_blocked_storm_wrong_axis_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            ab.WORKLOADS["blocked_storm"](
                point=4, axis="batch",
                flags=ab.WAKE_SCAN.arm_flags()["wake"],
                version=Version.V2021_3_6_EAGER, seed=1,
                params=ab.WAKE_SCAN.workload_params,
            )

    def test_missing_metric_detected(self):
        spec = ab.ABSpec(
            name="t", description="d", workload="blocked_storm",
            axis="ranks", points=(2,), seeds=(1,),
            base_overrides={"sched_wake_list": False},
            toggle={"sched_wake_list": True},
            metrics=(ab.MetricSpec("not_produced"),),
            workload_params={"rounds_by_ranks": {"2": 2}},
        )
        with pytest.raises(KeyError, match="not_produced"):
            ab.run_cell(
                spec, point=2, flags=spec.arm_flags()["off"], seed=1
            )
