"""Benchmark harness: generation, sweeps, fits, scans, emission."""

import json
import math
import random

import pytest

from arcrotor import bench
from arcrotor import (
    CSV_COLUMNS,
    EXACT,
    FLOAT64_DEGREES,
    DlogInstance,
    EmitError,
    FitResult,
    InsufficientDataError,
    OpCounters,
    ScanBucket,
    ScanReport,
    SolveReason,
    SolveReport,
    SweepConfig,
    SweepRecord,
    emit_results,
    fit_complexity,
    fixed_point,
    generate_instance,
    is_prime,
    least_k,
    modpow,
    naive_solve,
    precision_scan,
    run_sweep,
    verify_equivalence,
)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


class TestIsPrime:
    def test_matches_sieve(self):
        flags = sieve(10_000)
        for n in range(10_001):
            assert is_prime(n) == flags[n], n

    def test_larger_values(self):
        assert is_prime(2_147_483_647)  # Mersenne prime 2^31 - 1
        assert not is_prime(2_147_483_649)


class TestGenerateInstance:
    def test_known_answer_construction(self):
        # the generator's equation y = x^k mod p, checked at the fixtures
        assert modpow(3, 4, 7) == 4
        assert modpow(13, 5, 373) == 158

    def test_round_trip_many_seeds(self):
        for seed in range(200):
            gen = generate_instance(97, seed)
            inst = gen.instance
            assert 2 <= inst.x <= 96
            assert 1 <= gen.generating_k <= 96
            assert modpow(inst.x, gen.generating_k, inst.p) == inst.y

    def test_composite_modulus_never_yields_zero_target(self):
        for seed in range(300):
            gen = generate_instance(12, seed)
            assert 1 <= gen.instance.y < 12

    def test_smallest_modulus(self):
        for seed in range(30):
            gen = generate_instance(3, seed)
            assert gen.instance.x == 2
            assert gen.instance.y in (1, 2)

    def test_deterministic(self):
        assert generate_instance(373, 9) == generate_instance(373, 9)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_instance(2, 0)

    def test_least_k_never_exceeds_generating_k(self):
        for seed in range(100):
            gen = generate_instance(101, seed)
            assert least_k(gen.instance) <= gen.generating_k


class TestLeastK:
    def test_matches_naive_on_units_and_non_units(self):
        rng = random.Random(4)
        for _ in range(150):
            p = rng.randrange(3, 400)
            x = rng.randrange(1, p)
            y = rng.randrange(1, p)
            inst = DlogInstance(p, x, y)
            assert least_k(inst) == naive_solve(inst)


class TestRunSweep:
    def test_range_of_one(self):
        cfg = SweepConfig(p_min=5, p_max=5, samples_per_p=1, seed=42)
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].p == 5

    def test_exact_mode_always_correct(self):
        cfg = SweepConfig(p_min=3, p_max=60, samples_per_p=3, seed=7, prime_only=False)
        records = run_sweep(cfg)
        assert records
        assert all(r.correct for r in records)

    def test_addition_count_law_every_record(self):
        cfg = SweepConfig(p_min=3, p_max=80, samples_per_p=2, seed=13, prime_only=False)
        for r in run_sweep(cfg):
            assert r.counters.additions == r.counters.outer_steps * r.x

    def test_prime_only_filters(self):
        cfg = SweepConfig(p_min=3, p_max=30, samples_per_p=1, seed=1, prime_only=True)
        assert sorted({r.p for r in run_sweep(cfg)}) == [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_deterministic_modulo_wall_time(self):
        cfg = SweepConfig(p_min=3, p_max=40, samples_per_p=2, seed=11, prime_only=False)
        strip = lambda rs: [
            (r.p, r.x, r.y, r.k_true, r.k_found, r.counters, r.correct) for r in rs
        ]
        assert strip(run_sweep(cfg)) == strip(run_sweep(cfg))

    def test_oracle_algo_records_zero_counters(self):
        cfg = SweepConfig(p_min=5, p_max=20, samples_per_p=1, seed=3, algo="bsgs")
        for r in run_sweep(cfg):
            assert r.correct
            assert r.counters.total_arithmetic == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(p_min=10, p_max=5, samples_per_p=1, seed=1)
        with pytest.raises(ValueError):
            SweepConfig(p_min=1, p_max=5, samples_per_p=1, seed=1)
        with pytest.raises(ValueError):
            SweepConfig(p_min=3, p_max=5, samples_per_p=0, seed=1)
        with pytest.raises(ValueError):
            SweepConfig(p_min=3, p_max=5, samples_per_p=1, seed=1, algo="pollard")
        # only rotor-real reads the mode and the tolerance
        with pytest.raises(ValueError, match="^mode"):
            SweepConfig(p_min=3, p_max=5, samples_per_p=1, seed=1, mode=fixed_point(8))
        with pytest.raises(ValueError, match="^tolerance"):
            SweepConfig(p_min=3, p_max=5, samples_per_p=1, seed=1, algo="bsgs", tolerance=0.5)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^tolerance"):
                SweepConfig(
                    p_min=3, p_max=5, samples_per_p=1, seed=1,
                    algo="rotor-real", mode=FLOAT64_DEGREES, tolerance=bad,
                )


def planted_records(constant, exponent, ns):
    records = []
    for n in ns:
        ops = constant * n**exponent
        records.append(
            SweepRecord(
                p=n,
                x=2,
                y=1,
                k_true=1,
                k_found=1,
                counters=OpCounters(additions=ops, subtractions=0, comparisons=1, outer_steps=1),
                wall_ns=0,
                correct=True,
            )
        )
    return records


class TestFitComplexity:
    @pytest.mark.parametrize("constant,exponent", [(5, 1), (7, 2), (3, 3)])
    def test_recovers_planted_power_laws(self, constant, exponent):
        records = planted_records(constant, exponent, range(10, 90, 10))
        fit = fit_complexity(records, "p")
        assert abs(fit.exponent - exponent) <= 1e-6
        assert fit.r_squared >= 0.999999
        assert abs(math.exp(fit.intercept) - constant) < constant * 1e-4

    def test_requires_eight_records(self):
        with pytest.raises(InsufficientDataError):
            fit_complexity(planted_records(2, 2, [10, 20, 30, 40]), "p")

    def test_requires_four_distinct_n(self):
        records = planted_records(2, 2, [10, 20, 30]) * 3
        with pytest.raises(InsufficientDataError):
            fit_complexity(records, "p")

    def test_rejects_zero_op_records(self):
        records = planted_records(2, 2, range(10, 90, 10))
        records.append(
            SweepRecord(11, 2, 1, 1, 1, OpCounters(comparisons=1), 0, True)
        )
        with pytest.raises(ValueError):
            fit_complexity(records, "p")

    def test_rejects_unknown_n_definition(self):
        with pytest.raises(ValueError):
            fit_complexity(planted_records(2, 2, range(10, 90, 10)), "digits")

    def test_n_definition_x_uses_base(self):
        # ops = 4 * x^2 with p held fixed-ish and x varying
        records = []
        for x in range(10, 90, 10):
            records.append(
                SweepRecord(997, x, 1, 1, 1, OpCounters(additions=4 * x * x), 0, True)
            )
        fit = fit_complexity(records, "x")
        assert abs(fit.exponent - 2) <= 1e-6

    def test_median_aggregation_resists_outliers(self):
        ns = list(range(10, 90, 10))
        records = planted_records(7, 2, ns)
        # three duplicate records at one n, one of them wildly off
        records += planted_records(7, 2, [40, 40])
        records.append(
            SweepRecord(
                40, 2, 1, 1, 1, OpCounters(additions=10**9), 0, True
            )
        )
        clean = fit_complexity(records, "p", aggregate="median")
        skewed = fit_complexity(records, "p", aggregate="mean")
        assert abs(clean.exponent - 2) <= 1e-6
        assert abs(skewed.exponent - 2) > abs(clean.exponent - 2)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError):
            fit_complexity(planted_records(2, 2, range(10, 90, 10)), "p", aggregate="mode")


class TestPrecisionScan:
    def test_fixed_eight_bits_fails_early(self):
        report = precision_scan(fixed_point(8), None, 2000, samples_per_p=3, seed=5)
        assert report.first_failure_p is not None
        assert report.first_failure_p <= 2000

    def test_float64_exact_equality_clean_at_tiny_p(self):
        # every p <= 6 divides 360, so all arithmetic is exact in binary64
        report = precision_scan(FLOAT64_DEGREES, 0.0, 6, samples_per_p=25, seed=3)
        assert report.first_failure_p is None

    def test_deterministic(self):
        a = precision_scan(fixed_point(8), None, 400, samples_per_p=3, seed=11)
        b = precision_scan(fixed_point(8), None, 400, samples_per_p=3, seed=11)
        assert a == b

    def test_scan_all_censuses_full_range(self):
        partial = precision_scan(fixed_point(8), None, 60, samples_per_p=2, seed=2)
        full = precision_scan(
            fixed_point(8), None, 60, samples_per_p=2, seed=2, stop_at_first_failure=False
        )
        assert full.first_failure_p == partial.first_failure_p
        assert len(full.buckets) == 60 - 3 + 1
        assert len(partial.buckets) == partial.first_failure_p - 3 + 1
        assert partial.stopped_early

    def test_exact_mode_rejected(self):
        with pytest.raises(ValueError):
            precision_scan(EXACT, None, 100, 1, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            precision_scan(FLOAT64_DEGREES, None, 5, 1, 1, p_min=10)
        # p_min is raised to 3, the smallest modulus with an instance
        with pytest.raises(ValueError, match="^p_min"):
            precision_scan(FLOAT64_DEGREES, None, 2, 1, 1, p_min=2)

    def test_bad_tolerance_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^tolerance"):
                precision_scan(FLOAT64_DEGREES, bad, 10, 1, 1)


    def test_stop_mode_solves_no_modulus_past_the_first_failure(self, monkeypatch):
        solved = []
        real_solve = bench.rotor_solve_real

        def counting_solve(inst, *args, **kwargs):
            solved.append(inst.p)
            return real_solve(inst, *args, **kwargs)

        monkeypatch.setattr(bench, "rotor_solve_real", counting_solve)
        report = precision_scan(fixed_point(8), None, 2000, 3, 5)
        assert report.stopped_early
        assert len(solved) == (report.first_failure_p - 2) * 3
        assert max(solved) == report.first_failure_p


GOLDEN_PAYLOADS = {
    "records": [
        SweepRecord(373, 13, 158, 5, 5, OpCounters(52, 23, 6, 4), 123, True),
        SweepRecord(5, 4, 3, None, None, OpCounters(8, 6, 4, 2), 9, False),
    ],
    "fit": FitResult(2.0312, 1.9459101090932196, 0.9375, "bits_of_p"),
    "scan": ScanReport(
        mode=fixed_point(8),
        tolerance=0.25,
        p_min=3,
        p_max=5,
        samples_per_p=2,
        seed=7,
        first_failure_p=4,
        buckets=(ScanBucket(3, 2, 0), ScanBucket(4, 2, 1)),
        total_instances=4,
        total_failures=1,
        stopped_early=True,
    ),
}

GOLDEN_BYTES = {
    ("records", "csv"): (
        b"p,x,y,k_true,k_found,additions,subtractions,comparisons,outer_steps,wall_ns,correct\r\n"
        b"373,13,158,5,5,52,23,6,4,123,true\r\n"
        b"5,4,3,,,8,6,4,2,9,false\r\n"
    ),
    ("records", "json"): b"""[
  {
    "p": 373,
    "x": 13,
    "y": 158,
    "k_true": 5,
    "k_found": 5,
    "additions": 52,
    "subtractions": 23,
    "comparisons": 6,
    "outer_steps": 4,
    "wall_ns": 123,
    "correct": true
  },
  {
    "p": 5,
    "x": 4,
    "y": 3,
    "k_true": null,
    "k_found": null,
    "additions": 8,
    "subtractions": 6,
    "comparisons": 4,
    "outer_steps": 2,
    "wall_ns": 9,
    "correct": false
  }
]
""",
    ("fit", "csv"): (
        b"exponent,intercept,r_squared,n_definition\r\n"
        b"2.0312,1.9459101090932196,0.9375,bits_of_p\r\n"
    ),
    ("fit", "json"): b"""{
  "exponent": 2.0312,
  "intercept": 1.9459101090932196,
  "r_squared": 0.9375,
  "n_definition": "bits_of_p"
}
""",
    ("scan", "csv"): b"p,samples,failures\r\n3,2,0\r\n4,2,1\r\n",
    ("scan", "json"): b"""{
  "mode": "fixed:8",
  "tolerance_degrees": 0.25,
  "p_min": 3,
  "p_max": 5,
  "samples_per_p": 2,
  "seed": 7,
  "first_failure_p": 4,
  "total_instances": 4,
  "total_failures": 1,
  "stopped_early": true,
  "census": [
    {
      "p": 3,
      "samples": 2,
      "failures": 0
    },
    {
      "p": 4,
      "samples": 2,
      "failures": 1
    }
  ]
}
""",
}


class TestEmitResults:
    @pytest.mark.parametrize("name,fmt", sorted(GOLDEN_BYTES))
    def test_golden_bytes(self, tmp_path, name, fmt):
        path = tmp_path / f"{name}.{fmt}"
        emit_results(GOLDEN_PAYLOADS[name], fmt, path)
        assert path.read_bytes() == GOLDEN_BYTES[name, fmt]

    def one_record(self):
        return SweepRecord(
            p=373,
            x=13,
            y=158,
            k_true=5,
            k_found=5,
            counters=OpCounters(52, 23, 6, 4),
            wall_ns=123,
            correct=True,
        )

    def test_empty_records_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_single_record_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_results([self.one_record()], "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "373,13,158,5,5,52,23,6,4,123,true"

    def test_missing_k_found_is_empty_cell(self, tmp_path):
        record = SweepRecord(5, 4, 3, None, None, OpCounters(8, 6, 4, 2), 9, False)
        path = tmp_path / "miss.csv"
        emit_results([record], "csv", path)
        assert path.read_text().splitlines()[1] == "5,4,3,,,8,6,4,2,9,false"

    def test_records_json_mirrors_field_names(self, tmp_path):
        path = tmp_path / "r.json"
        emit_results([self.one_record()], "json", path)
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert set(payload[0]) == set(CSV_COLUMNS)
        assert payload[0]["k_found"] == 5
        assert payload[0]["correct"] is True

    def test_fit_json_schema(self, tmp_path):
        fit = FitResult(2.0, 1.9459, 1.0, "p")
        path = tmp_path / "fit.json"
        emit_results(fit, "json", path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"exponent", "intercept", "r_squared", "n_definition"}

    def test_fit_csv(self, tmp_path):
        path = tmp_path / "fit.csv"
        emit_results(FitResult(2.0, 1.9, 1.0, "p"), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "exponent,intercept,r_squared,n_definition"
        assert len(lines) == 2

    def test_scan_report_emission(self, tmp_path):
        report = precision_scan(fixed_point(8), None, 100, samples_per_p=2, seed=1)
        csv_path = tmp_path / "scan.csv"
        emit_results(report, "csv", csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p,samples,failures"
        json_path = tmp_path / "scan.json"
        emit_results(report, "json", json_path)
        payload = json.loads(json_path.read_text())
        assert payload["first_failure_p"] == report.first_failure_p
        assert payload["census"][0]["p"] == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "xml", tmp_path / "x.xml")

    def test_unknown_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_results({"not": "supported"}, "json", tmp_path / "x.json")

    def test_unwritable_destination(self):
        with pytest.raises(EmitError, match="no/such/dir"):
            emit_results([], "csv", "/no/such/dir/out.csv")


class TestVerifyEquivalence:
    def test_small_exhaustive_run(self):
        result = verify_equivalence(30)
        assert result.mismatches == 0
        assert result.examples == ()
        assert result.instances == sum((p - 1) ** 2 for p in range(2, 31))

    @pytest.mark.parametrize(
        "name,label", [("rotor_solve_int", "rotor-int"), ("bsgs_solve", "bsgs")]
    )
    def test_one_wrong_answer_is_one_mismatch(self, monkeypatch, name, label):
        # 3^3 = 6 (mod 7), so the least k is 3; the patched solver answers 4 there
        solver = getattr(bench, name)

        def wrong_on_7_3_6(inst):
            out = solver(inst)
            if (inst.p, inst.x, inst.y) != (7, 3, 6):
                return out
            if isinstance(out, SolveReport):
                return SolveReport(out.k + 1, out.reason, out.counters)
            return out + 1

        monkeypatch.setattr(bench, name, wrong_on_7_3_6)
        result = verify_equivalence(12)
        assert result.instances == sum((p - 1) ** 2 for p in range(2, 13))
        assert result.mismatches == 1
        assert result.examples == (f"{label} p=7 x=3 y=6: got 4, oracle 3",)

    def test_always_wrong_rotor_keeps_ten_examples(self, monkeypatch):
        # k = p is never a least exponent, so every instance mismatches once
        def always_wrong(inst):
            return SolveReport(inst.p, SolveReason.FOUND, OpCounters())

        monkeypatch.setattr(bench, "rotor_solve_int", always_wrong)
        result = verify_equivalence(12)
        assert result.mismatches == result.instances == sum((p - 1) ** 2 for p in range(2, 13))
        assert len(result.examples) == 10
        assert result.examples[0] == "rotor-int p=2 x=1 y=1: got 2, oracle 0"
