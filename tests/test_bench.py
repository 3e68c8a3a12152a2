"""Benchmark harness: generation, sweeps, fits, scans, emission."""

import copy
import dataclasses
import json
import math
import pickle
import random
import statistics
import threading
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcrotor import bench
from arcrotor import (
    CSV_COLUMNS,
    EXACT,
    FLOAT64_DEGREES,
    DlogInstance,
    EmitError,
    FitResult,
    GeneratedInstance,
    InsufficientDataError,
    InvalidInstanceError,
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

    @pytest.mark.parametrize(
        "n,factors",
        [
            (318_665_857_834_031_151_167_461, (399_165_290_221, 798_330_580_441)),
            (3_317_044_064_679_887_385_961_981, (1_287_836_182_261, 2_575_672_364_521)),
        ],
    )
    def test_pseudoprimes_to_the_witnesses_refused(self, n, factors):
        # composites that are strong probable primes to all 12 witnesses, the
        # least such and the least to the first 13 primes: both read as prime
        assert factors[0] * factors[1] == n
        with pytest.raises(ValueError, match="^n must be below 318665857834031151167461"):
            is_prime(n)

    def test_bound_of_the_witnesses(self):
        last = 318_665_857_834_031_151_167_460  # the largest n that gets an answer
        assert is_prime(last) is False
        assert is_prime(2**61 - 1) is True  # Mersenne prime
        with pytest.raises(ValueError, match="^n must be below"):
            is_prime(last + 1)
        with pytest.raises(ValueError, match="^n must be below"):
            is_prime(2**89 - 1)  # a Mersenne prime past the bound is refused too


def reference_draw(p, seed):
    # The generation contract: a fresh Random(seed) draws x, then k, and
    # redraws both while x^k is 0 mod p.
    rng = random.Random(seed)
    while True:
        x = rng.randrange(2, p)
        k = rng.randrange(1, p)
        if pow(x, k, p) != 0:
            return GeneratedInstance(DlogInstance(p, x, pow(x, k, p)), k)


GENERATION_SEEDS = (0, 1, 7, 2**31 - 1, 2**40 + 3, bench._child_seed(1, 4999, 9), -5)


class TestGenerateInstance:
    def test_matches_a_fresh_generator(self):
        for p in range(3, 301):
            for seed in GENERATION_SEEDS:
                assert generate_instance(p, seed) == reference_draw(p, seed), (p, seed)

    def test_composite_rejections_match_a_fresh_generator(self):
        # seeds whose first draw gives x^k = 0 and is redrawn
        rejected = 0
        for p in (4, 8, 12, 16, 27, 32, 36, 64, 72, 96, 128):
            for seed in range(200):
                first = random.Random(seed)
                x, k = first.randrange(2, p), first.randrange(1, p)
                rejected += pow(x, k, p) == 0
                assert generate_instance(p, seed) == reference_draw(p, seed), (p, seed)
        assert rejected > 100

    def test_shuffled_calls_give_the_same_instances(self):
        calls = [(p, seed) for p in range(3, 120) for seed in GENERATION_SEEDS]
        want = {call: reference_draw(*call) for call in calls}
        random.Random(25).shuffle(calls)
        assert {call: generate_instance(*call) for call in calls} == want

    def test_threads_match_serial_calls(self):
        calls = [(3 + i % 997, i) for i in range(2000)]
        serial = [generate_instance(p, seed) for p, seed in calls]
        barrier = threading.Barrier(2)
        results = [None, None]

        def worker(slot, order):
            barrier.wait()
            results[slot] = {call: generate_instance(*call) for call in order}

        threads = [
            threading.Thread(target=worker, args=(0, calls)),
            threading.Thread(target=worker, args=(1, calls[::-1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got in results:
            assert [got[call] for call in calls] == serial

    def test_global_generator_neither_read_nor_moved(self):
        random.seed(12345)
        before = random.getstate()
        first = [generate_instance(p, 3) for p in range(3, 60)]
        assert random.getstate() == before
        random.seed(999)
        random.random()
        assert [generate_instance(p, 3) for p in range(3, 60)] == first

    def test_known_answer_construction(self):
        # the generator's equation y = x^k mod p, checked at the fixtures
        assert pow(3, 4, 7) == 4
        assert pow(13, 5, 373) == 158

    def test_round_trip_many_seeds(self):
        for seed in range(200):
            gen = generate_instance(97, seed)
            inst = gen.instance
            assert 2 <= inst.x <= 96
            assert 1 <= gen.generating_k <= 96
            assert pow(inst.x, gen.generating_k, inst.p) == inst.y

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

    def test_numpy_int_inputs_match_int_inputs(self):
        assert generate_instance(np.int64(101), np.int64(5)) == generate_instance(101, 5)
        for p, seed in ((3, 0), (12, 5), (101, 2**40 + 3), (4999, 9)):
            got = generate_instance(np.int64(p), np.int64(seed))
            assert got == reference_draw(p, seed)
            assert type(got.instance.p) is int and type(got.generating_k) is int

    @pytest.mark.parametrize("p,rng_seed,name", [(101.0, 5, "p"), (101, 5.0, "rng_seed")])
    def test_rejects_non_whole_inputs(self, p, rng_seed, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
            generate_instance(p, rng_seed)

    def test_least_k_never_exceeds_generating_k(self):
        for seed in range(100):
            gen = generate_instance(101, seed)
            assert least_k(gen.instance) <= gen.generating_k


@pytest.mark.parametrize(
    "cls,names,args,change,refused",
    [
        (
            DlogInstance,
            ("p", "x", "y"),
            (373, 13, 158),
            ("y", 2),
            ({"y": 373}, InvalidInstanceError, "^y must satisfy"),
        ),
        (
            SolveReport,
            ("k", "reason", "counters"),
            (5, SolveReason.FOUND, OpCounters(52, 23, 6, 4)),
            ("k", 6),
            ({"k": None}, ValueError, "^k must be present exactly when the reason is Found"),
        ),
        (
            GeneratedInstance,
            ("instance", "generating_k"),
            (DlogInstance(373, 13, 158), 5),
            ("generating_k", 2),
            None,
        ),
        (
            SweepRecord,
            ("p", "x", "y", "k_true", "k_found", "counters", "wall_ns", "correct"),
            (373, 13, 158, 5, 5, OpCounters(52, 23, 6, 4), 123, True),
            ("x", 2),
            None,
        ),
    ],
    ids=["DlogInstance", "SolveReport", "GeneratedInstance", "SweepRecord"],
)
def test_slotted_record_contract(cls, names, args, change, refused):
    # the slotted, frozen value types with their own __init__
    obj = cls(*args)
    assert cls.__match_args__ == names
    assert tuple(asdict(obj)) == names
    assert not hasattr(obj, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_keyword == obj
    if any(isinstance(arg, OpCounters) for arg in args):
        # its OpCounters is mutable, so the object has no hash either way
        for twin in (obj, by_keyword):
            with pytest.raises(TypeError):
                hash(twin)
    else:
        assert hash(by_keyword) == hash(obj)
    name, value = change
    changed = replace(obj, **{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert replace(changed, **{name: getattr(obj, name)}) == obj
    if refused is not None:
        # replace builds a new object through __init__, so it is checked again
        bad, error, message = refused
        with pytest.raises(error, match=message):
            replace(obj, **bad)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj


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
    @pytest.mark.parametrize("seed", [5, 2**62])
    def test_numpy_int_config_matches_int_config(self, seed):
        cfg = SweepConfig(np.int64(100), np.int64(110), np.int64(2), np.int64(seed))
        assert [type(v) for v in (cfg.p_min, cfg.p_max, cfg.samples_per_p, cfg.seed)] == [int] * 4
        numpy_records = [replace(r, wall_ns=0) for r in run_sweep(cfg)]
        int_records = [replace(r, wall_ns=0) for r in run_sweep(SweepConfig(100, 110, 2, seed))]
        assert numpy_records == int_records

    @pytest.mark.parametrize(
        "fields,name",
        [
            ((3.5, 10, 1, 1), "p_min"),
            ((5, 10.0, 1, 1), "p_max"),
            ((5, 10, 2.0, 1), "samples_per_p"),
            ((5, 10, 2, 1.0), "seed"),
        ],
    )
    def test_float_fields_rejected(self, fields, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
            SweepConfig(*fields)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_prime_only_stored_as_bool(self, flag):
        cfg = SweepConfig(10, 40, 1, 1, prime_only=flag)
        assert type(cfg.prime_only) is bool and cfg.prime_only == flag
        ps = {r.p for r in run_sweep(cfg)}
        assert ps == ({11, 13, 17, 19, 23, 29, 31, 37} if flag else set(range(10, 41)))

    @pytest.mark.parametrize("bad", ["no", "", 0, 1, None, 1.0, np.int64(1)])
    def test_non_bool_prime_only_rejected(self, bad):
        # a truthy string such as "no" kept primes only
        with pytest.raises(ValueError, match=r"^prime_only must be a bool"):
            SweepConfig(10, 20, 1, 1, prime_only=bad)

    def test_prime_only_past_the_witnesses_bound_refused_at_the_bsgs_bound(self):
        # the loop refuses every p past 2**44 before is_prime sees it, so a
        # p_max past is_prime's bound constructs and the sweep is refused
        bound = 318_665_857_834_031_151_167_461  # the least n that is_prime refuses
        cfg = SweepConfig(bound, bound + 9, 1, 1)
        assert cfg.p_max == bound + 9
        with pytest.raises(ValueError, match=r"^p_max must be at most 2\*\*44"):
            run_sweep(cfg)
        assert SweepConfig(2, bound - 1, 1, 1).p_max == bound - 1
        assert SweepConfig(bound, bound + 9, 1, 1, prime_only=False).p_max == bound + 9

    def test_p_past_the_bsgs_bound_refused_before_generation(self, monkeypatch):
        # least_k's BSGS table ends at p = 2**44; a sweep or scan that reached
        # a p past it raised bsgs_solve's error, which names no field
        seen = []
        real_is_prime, real_generate = bench.is_prime, bench.generate_instance
        monkeypatch.setattr(bench, "is_prime", lambda n: seen.append(n) or real_is_prime(n))
        monkeypatch.setattr(
            bench, "generate_instance", lambda p, s: seen.append(p) or real_generate(p, s)
        )
        lo, hi = 2**44 + 1, 2**44 + 60
        runs = [
            lambda: run_sweep(SweepConfig(lo, hi, 1, 1)),
            lambda: run_sweep(SweepConfig(lo, hi, 1, 1, prime_only=False)),
            lambda: precision_scan(fixed_point(16), None, hi, 1, 1, p_min=lo),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=rf"^p_max must be at most 2\*\*44 .*p_max={hi}$"):
                run()
        assert seen == []

    def test_p_at_the_bsgs_bound_reaches_the_oracle(self, monkeypatch):
        # the bound is inclusive, as bsgs_solve's is
        oracle = []
        monkeypatch.setattr(bench, "least_k", lambda inst: oracle.append(inst.p) or 1)
        monkeypatch.setattr(
            bench, "solve", lambda *args: SolveReport(1, SolveReason.FOUND, OpCounters())
        )
        cfg = SweepConfig(2**44, 2**44, 1, 1, prime_only=False)
        records = list(bench._sweep_records(cfg))
        assert oracle == [2**44]
        assert [(r.p, r.k_true, r.k_found, r.correct) for r in records] == [(2**44, 1, 1, True)]

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

    def test_unknown_algo_rejected_by_solve(self):
        with pytest.raises(ValueError, match="^algo 'bogus' is unknown"):
            bench.solve("bogus", DlogInstance(373, 13, 158))

    @pytest.mark.parametrize(
        "tolerance,checked",
        [(np.int64(1), 1), (np.float32(0.5), 0.5), (10**400, 10**400)],
        ids=["int64", "float32", "past-float-range"],
    )
    def test_tolerance_stored_as_checked(self, tolerance, checked):
        cfg = SweepConfig(
            p_min=3, p_max=5, samples_per_p=1, seed=1,
            algo="rotor-real", mode=FLOAT64_DEGREES, tolerance=tolerance,
        )
        assert cfg.tolerance == checked
        assert type(cfg.tolerance) is type(checked)

    def test_oracle_algo_records_zero_counters(self):
        cfg = SweepConfig(p_min=5, p_max=20, samples_per_p=1, seed=3, algo="bsgs")
        for r in run_sweep(cfg):
            assert r.correct
            assert r.counters.total_arithmetic == 0

    @pytest.mark.parametrize("algo", ["rotor-real", "rotor-int", "bsgs"])
    def test_mode_not_a_numeric_mode_rejected(self, algo):
        # a mode name is not a mode: it would fail at the first solve, or
        # with an untyped AttributeError
        with pytest.raises(ValueError, match="^mode must be a NumericMode, got 'float64'"):
            SweepConfig(10, 12, 1, 1, algo=algo, mode="float64")
        with pytest.raises(ValueError, match="^mode"):
            bench.check_solver_options(algo, None, None)

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

    @pytest.mark.parametrize(
        "ops,ns",
        [(751_985, [409, 490, 556, 565, 657, 859, 884]), (462_943_231, [409, 490, 556, 565, 657])],
    )
    def test_constant_ops_fit_exactly(self, ops, ns):
        # the logs of equal counts leave ss_tot and ss_res at rounding noise
        # (-5.857 and 0.0 were reported as r^2 for these two)
        records = [
            SweepRecord(p, 2, 1, 1, 1, OpCounters(additions=ops), 0, True) for p in ns * 2
        ]
        for aggregate in ("mean", "median"):
            fit = fit_complexity(records, "p", aggregate)
            assert fit.r_squared == 1.0
            assert abs(fit.exponent) <= 1e-9


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mean_is_statistics_mean_as_a_float(self, data):
        # op counts are ints; sums pass 2**53, where a float sum would round
        values = data.draw(
            st.lists(st.one_of(st.integers(1, 10**6), st.integers(2**50, 2**70)), min_size=1, max_size=12),
            label="values",
        )
        if data.draw(st.booleans(), label="whole"):
            values[-1] += -sum(values) % len(values)
        expected = statistics.mean(values)
        assert type(expected) is int or sum(values) % len(values)
        got = bench._mean(values)
        assert type(got) is float and got == float(expected)


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

    @pytest.mark.parametrize("flag", [np.True_, np.False_])
    def test_numpy_bool_stop_at_first_failure(self, flag):
        mode = fixed_point(8)
        got = precision_scan(mode, None, 60, 2, 2, stop_at_first_failure=flag)
        assert got == precision_scan(mode, None, 60, 2, 2, stop_at_first_failure=bool(flag))

    @pytest.mark.parametrize("bad", ["no", "", 0, 1, None, 1.0, np.int64(1)])
    def test_non_bool_stop_at_first_failure_rejected(self, bad):
        # "no" stopped at the first failing p, None ran the full census
        with pytest.raises(ValueError, match=r"^stop_at_first_failure must be a bool"):
            precision_scan(fixed_point(8), None, 60, 2, 2, stop_at_first_failure=bad)

    def test_numpy_int_arguments_match_int_arguments(self):
        mode = fixed_point(8)
        got = precision_scan(mode, None, np.int64(60), np.int64(2), np.int64(2**62), np.int64(3))
        assert got == precision_scan(mode, None, 60, 2, 2**62, 3)
        fields = (got.p_min, got.p_max, got.samples_per_p, got.seed, got.total_instances)
        assert [type(v) for v in fields] == [int] * 5

    def test_exact_mode_rejected(self):
        with pytest.raises(ValueError):
            precision_scan(EXACT, None, 100, 1, 1)

    def test_mode_not_a_numeric_mode_rejected(self):
        with pytest.raises(ValueError, match="^mode must be a NumericMode"):
            precision_scan("float64", None, 20, 1, 1)

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

    @pytest.mark.parametrize("bad", [2.5, "5", None])
    def test_p_min_not_whole_rejected(self, bad):
        # 2.5 ran as 3 (raised before it was checked); "5" and None raised TypeError
        with pytest.raises(ValueError, match=r"^p_min must be a whole number"):
            precision_scan(FLOAT64_DEGREES, None, 10, 1, 1, p_min=bad)

    def test_numpy_p_min_is_raised_to_three(self):
        got = precision_scan(FLOAT64_DEGREES, None, 10, 1, 1, p_min=np.int64(2))
        assert got == precision_scan(FLOAT64_DEGREES, None, 10, 1, 1)
        assert got.p_min == 3 and got.buckets[0].p == 3

    def test_numpy_float_tolerance_emits_as_json(self, tmp_path):
        report = precision_scan(
            FLOAT64_DEGREES, np.float32(0.5), 30, 2, 1, stop_at_first_failure=False
        )
        plain = precision_scan(FLOAT64_DEGREES, 0.5, 30, 2, 1, stop_at_first_failure=False)
        assert report == plain
        assert type(report.tolerance) is float
        path = tmp_path / "scan.json"
        emit_results(report, "json", path)
        assert json.loads(path.read_text())["tolerance_degrees"] == 0.5

    @pytest.mark.parametrize("bits", [32, 112])
    def test_tolerance_past_the_float_range(self, bits):
        # 1e300 * 2**bits overflows a float, but the tolerance is finite;
        # like 1000 degrees it covers the whole wrap
        mode = fixed_point(bits)
        report = precision_scan(mode, 1e300, 40, 2, 7, stop_at_first_failure=False)
        wide = precision_scan(mode, 1000.0, 40, 2, 7, stop_at_first_failure=False)
        assert report.buckets == wide.buckets
        assert report.total_instances == 2 * (40 - 3 + 1)


    def test_scan_stopping_below_the_bsgs_bound_answers_past_it(self):
        # the sweep loop checks each p it reaches, not p_max
        report = precision_scan(fixed_point(8), None, 10**30, 3, 1)
        assert (report.first_failure_p, report.stopped_early) == (11, True)
        assert report.total_instances == 27

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

    def test_int_one_cells_are_not_bools(self, tmp_path):
        # True == 1, so only an identity test tells the correct flag from a count
        records = [
            SweepRecord(3, 2, 2, 1, 1, OpCounters(1, 1, 1, 1), 1, True),
            SweepRecord(3, 2, 2, 1, 1, OpCounters(1, 1, 1, 1), 1, 1),
        ]
        path = tmp_path / "ones.csv"
        emit_results(records, "csv", path)
        assert path.read_bytes().split(b"\r\n")[1:] == [
            b"3,2,2,1,1,1,1,1,1,1,true",
            b"3,2,2,1,1,1,1,1,1,1,1",
            b"",
        ]
        # JSON writes `correct` as stored: true for True, 1 for the int 1
        path = tmp_path / "ones.json"
        emit_results(records, "json", path)
        assert [(type(r["correct"]), r["correct"]) for r in json.loads(path.read_text())] == [
            (bool, True),
            (int, 1),
        ]
        assert '"correct": true\n' in path.read_text() and '"correct": 1\n' in path.read_text()

    def test_numpy_bool_cells_read_as_bools(self, tmp_path):
        records = [
            SweepRecord(5, 4, 3, None, None, OpCounters(8, 6, 4, 2), 9, np.bool_(False)),
            SweepRecord(5, 4, 3, 2, 2, OpCounters(8, 6, 4, 2), 9, np.bool_(True)),
        ]
        path = tmp_path / "numpy.csv"
        emit_results(records, "csv", path)
        assert path.read_text().splitlines()[1:] == [
            "5,4,3,,,8,6,4,2,9,false",
            "5,4,3,2,2,8,6,4,2,9,true",
        ]

    def test_numpy_fields_emit_their_values_as_json(self, tmp_path):
        record = SweepRecord(np.int64(5), 4, 3, 2, None, OpCounters(8, 6, 4, 2), 9, np.bool_(False))
        path = tmp_path / "numpy.json"
        emit_results([self.one_record(), record], "json", path)
        payload = json.loads(path.read_text())
        assert payload[1] == dict(zip(CSV_COLUMNS, (5, 4, 3, 2, None, 8, 6, 4, 2, 9, False)))
        assert payload[1]["correct"] is False

    def test_json_field_it_cannot_write_leaves_the_file(self, tmp_path):
        # the document is serialised before the destination is opened
        path = tmp_path / "old.json"
        path.write_text("earlier contents\n")
        record = SweepRecord(Fraction(5), 4, 3, 2, None, OpCounters(8, 6, 4, 2), 9, False)
        with pytest.raises(TypeError, match=r"^cannot emit a value of type Fraction as JSON$"):
            emit_results([self.one_record(), record], "json", path)
        assert path.read_text() == "earlier contents\n"

    @pytest.mark.parametrize(
        "payload,fmt,bad",
        [
            ([{"p": 5}], "csv", "record 0 of type dict"),
            ([1, 2], "json", "record 0 of type int"),
            ([GOLDEN_PAYLOADS["records"][0], None], "csv", "record 1 of type NoneType"),
        ],
    )
    def test_non_record_items_rejected_before_writing(self, tmp_path, payload, fmt, bad):
        path = tmp_path / f"old.{fmt}"
        path.write_text("earlier contents\n")
        with pytest.raises(TypeError, match=rf"^cannot emit {bad}; expected a SweepRecord$"):
            emit_results(payload, fmt, path)
        assert path.read_text() == "earlier contents\n"

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

    def test_format_not_a_string_rejected(self, tmp_path):
        # None.lower() raised AttributeError
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=r"^format must be 'csv' or 'json', got None$"):
            emit_results([], None, path)
        assert not path.exists()

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
        "name,label",
        [("rotor_solve_int", "rotor-int"), ("naive_solve", "naive"), ("bsgs_solve", "bsgs")],
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

    def test_whole_p_max_stored_as_int(self):
        got = verify_equivalence(np.int64(12))
        assert got == verify_equivalence(12)
        assert type(got.p_max) is int
        assert json.loads(json.dumps(asdict(got)))["p_max"] == 12

    @pytest.mark.parametrize("bad", [12.0, "12", None])
    def test_non_whole_p_max_rejected(self, bad):
        with pytest.raises(ValueError, match="^p_max must be a whole number"):
            verify_equivalence(bad)

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_p_max_below_two_rejected(self, bad):
        # no modulus below 2 has an instance: a run over none checks nothing
        with pytest.raises(ValueError, match=f"^p_max must be >= 2, got {bad}$"):
            verify_equivalence(bad)

    def test_power_scan_stops_at_zero(self):
        # 2 is nilpotent mod 2**40: its powers 1, 2, ..., 2**39 then 0 for good
        assert bench._least_ks(2**40, 2) == {2**k: k for k in range(40)}

    def test_corrupt_orbit_value_is_one_mismatch(self, monkeypatch):
        # 2 generates the units mod 37, so its orbit from 2 runs 4, 8, 16, ...
        # with each value once.  Reading the earlier 4 in place of 16 leaves
        # 16 (least k 4) without an answer, and no other y changes.
        walk = bench._walk_int

        def corrupted(x, acc, lo, hi, wrap, max_steps, trail=None):
            out = walk(x, acc, lo, hi, wrap, max_steps, trail)
            if trail is not None and (wrap, x) == (37, 2):
                trail[:] = [4 if value == 16 else value for value in trail]
            return out

        monkeypatch.setattr(bench, "_walk_int", corrupted)
        result = verify_equivalence(37)
        assert result.instances == sum((p - 1) ** 2 for p in range(2, 38))
        assert result.mismatches == 1
        assert result.examples == ("rotor-orbit p=37 x=2 y=16: got None, oracle 4",)

    @pytest.mark.parametrize(
        "name,label",
        [("rotor_solve_int", "rotor-int"), ("naive_solve", "naive"), ("bsgs_solve", "bsgs")],
    )
    def test_one_wrong_sampled_answer_is_one_mismatch(self, monkeypatch, name, label):
        # Above p = 30 the solvers run on a sample per (p, x).  It holds the
        # reachable y with the largest least k: for the generator 2 mod 37,
        # 2^35 = 19.  The patched solver answers 36 there.
        solver = getattr(bench, name)

        def wrong_on_37_2_19(inst):
            out = solver(inst)
            if (inst.p, inst.x, inst.y) != (37, 2, 19):
                return out
            if isinstance(out, SolveReport):
                return SolveReport(out.k + 1, out.reason, out.counters)
            return out + 1

        monkeypatch.setattr(bench, name, wrong_on_37_2_19)
        result = verify_equivalence(37)
        assert result.instances == sum((p - 1) ** 2 for p in range(2, 38))
        assert result.mismatches == 1
        assert result.examples == (f"{label} p=37 x=2 y=19: got 36, oracle 35",)

    def test_sample_holds_the_longest_and_an_unreachable_target(self, monkeypatch):
        # p = 35, x = 4: the powers 1, 4, 16, 29, 11, 9 leave y = 2 unreachable
        # and give 9 the largest least k, 5.
        asked = []

        def recording(inst):
            asked.append((inst.p, inst.x, inst.y))
            return naive_solve(inst)

        monkeypatch.setattr(bench, "naive_solve", recording)
        assert verify_equivalence(37).mismatches == 0
        assert [y for p, x, y in asked if (p, x) == (35, 4)] == [9, 2]
        # mod 37 only the phi(36) = 12 generators reach every y
        assert len([t for t in asked if t[0] == 37]) == 2 * 36 - 12
        assert len([t for t in asked if t[0] == 30]) == 29 * 29

    def test_always_wrong_rotor_keeps_ten_examples(self, monkeypatch):
        # k = p is never a least exponent, so every instance mismatches once
        def always_wrong(inst):
            return SolveReport(inst.p, SolveReason.FOUND, OpCounters())

        monkeypatch.setattr(bench, "rotor_solve_int", always_wrong)
        result = verify_equivalence(12)
        assert result.mismatches == result.instances == sum((p - 1) ** 2 for p in range(2, 13))
        assert len(result.examples) == 10
        assert result.examples[0] == "rotor-int p=2 x=1 y=1: got 2, oracle 0"
