"""End-to-end acceptance: the library's headline guarantees, one test each.

Each criterion prints a single ACCEPTANCE line (written through the
capture, so it is visible in normal pytest output) and fails loudly if
the guarantee does not hold at the stated tolerance.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from entropy_kit import cli
from entropy_kit.bounds import BoundSpec, fannes_tsallis_high_q, max_unified, thermodynamic_ratio_limit
from entropy_kit.entropies import UnifiedParams, renyi, unified_classical, unified_quantum
from entropy_kit.linops import (
    ProbabilityDistribution,
    diagonal_density,
    maximally_mixed,
    tensor,
)
from entropy_kit.verify import (
    StabilityExample,
    qubit_measurement_decrease,
    run_check,
    stability_ratio,
)


def announce(capsys, number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_theorem_suites_pass(capsys):
    def body():
        start = time.monotonic()
        code = cli.main(["check", "all", "--trials", "1000", "--seed", "42"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "failures=0" in out
        assert elapsed < 300.0

    announce(capsys, 1, "theorem suites at 1000 trials", body)


def test_criterion_2_high_index_bound_saturates(capsys):
    def body():
        eps, d, q = 0.1, 4, 2.0
        rho = diagonal_density([1.0] + [0.0] * (d - 1))
        omega = diagonal_density([1.0 - eps] + [eps / (d - 1)] * (d - 1))
        params = UnifiedParams(q, 1.0)
        diff = abs(unified_quantum(rho, params) - unified_quantum(omega, params))
        bound = fannes_tsallis_high_q(BoundSpec(q, 1.0, d, eps))
        assert bound == pytest.approx(0.186667, abs=1e-6)
        assert diff == pytest.approx(bound, abs=1e-10)

    announce(capsys, 2, "saturation of the high-index bound", body)


def test_criterion_3_maximum_attained_at_flat_state(capsys):
    def body():
        grid = [(0.5, -1.0), (0.5, 0.0), (0.5, 1.0), (2.0, -1.0), (2.0, 0.0),
                (2.0, 1.0), (3.0, 2.0), (1.0, 1.0)]
        for d in range(2, 9):
            mm = maximally_mixed(d)
            for q, s in grid:
                got = unified_quantum(mm, UnifiedParams(q, s))
                assert abs(got - max_unified(q, s, d)) <= 1e-10
            assert abs(
                unified_quantum(mm, UnifiedParams(2.0, 0.0)) - math.log(d)
            ) <= 1e-10

    announce(capsys, 3, "maximum attained by the flat state", body)


def test_criterion_4_instability_examples_reach_one(capsys):
    def body():
        sweep0 = [
            stability_ratio(StabilityExample("example0", 0.01, d, 0.5, -1.0))
            for d in (10, 100, 1000, 10**4, 10**6, 10**8)
        ]
        assert all(b > a for a, b in zip(sweep0, sweep0[1:]))
        assert sweep0[-1] > 0.99
        sweep1 = [
            stability_ratio(StabilityExample("example1", 0.1, d, 2.0, -1.0))
            for d in (10, 1000, 10**6)
        ]
        assert all(b > a for a, b in zip(sweep1, sweep1[1:]))
        assert sweep1[-1] > 0.95
        assert all(r < 1.0 for r in sweep0 + sweep1)

    announce(capsys, 4, "stability ratios approach 1 at fixed eps", body)


def test_criterion_5_thermodynamic_envelope(capsys):
    def body():
        q, s = 2.0, 1.0
        for eps in (0.01, 0.05, 0.1):
            assert thermodynamic_ratio_limit(q, s, eps) <= s * q * eps + 1e-8

    announce(capsys, 5, "thermodynamic limit below s*q*eps", body)


def test_criterion_6_subadditivity_violations_found(capsys):
    def body():
        rep = run_check("subadd-violation", trials=200, seed=42)
        assert rep.failures >= 1
        assert rep.max_violation >= 1.0 - 1e-9
        mm = maximally_mixed(2)
        prod = tensor(mm, mm)
        high = UnifiedParams(2.0, -1.0)
        low = UnifiedParams(0.5, 1.0)
        gap_high = unified_quantum(prod, high) - 2.0 * unified_quantum(mm, high)
        gap_low = unified_quantum(prod, low) - 2.0 * unified_quantum(mm, low)
        assert gap_high >= 1.0 - 1e-9
        assert gap_low >= 0.34

    announce(capsys, 6, "subadditivity failure region nonempty", body)


def test_criterion_7_limits_match_renyi_and_shannon(capsys):
    def body():
        rng = np.random.default_rng(7)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            p = ProbabilityDistribution(rng.dirichlet(np.ones(size)))
            for q in (0.5, 2.0, 3.0):
                r = renyi(p, q)
                for s in (1e-10, -1e-10):
                    assert abs(
                        unified_classical(p, UnifiedParams(q, s)) - r
                    ) <= 1e-6 * (1 + abs(r))
            h = renyi(p, 1.0)
            for s in (-1.0, 0.5, 2.0):
                assert abs(
                    unified_classical(p, UnifiedParams(1.0 + 1e-8, s)) - h
                ) <= 1e-5 * (1 + abs(h))

    announce(capsys, 7, "limit consistency over random distributions", body)


def test_criterion_8_qubit_measurement_strictly_decreases(capsys):
    def body():
        from entropy_kit.linops import GeneralizedMeasurement, apply_generalized
        from entropy_kit.verify import QUBIT_MEASUREMENT

        flat = diagonal_density((0.5, 0.5))
        after = apply_generalized(flat, GeneralizedMeasurement(QUBIT_MEASUREMENT))
        params = UnifiedParams(2.0, 1.0)
        assert unified_quantum(flat, params) == pytest.approx(0.5, abs=1e-12)
        assert unified_quantum(after, params) == pytest.approx(0.0, abs=1e-12)
        rep = qubit_measurement_decrease(diagonal_density((0.8, 0.2)))
        assert rep.failures == 0
        assert rep.max_violation < 0.0

    announce(capsys, 8, "qubit measurement strictly lowers entropy", body)


def test_criterion_9_reports_byte_identical(capsys):
    def body():
        argv = ["check", "all", "--seed", "42", "--json"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        for line in first.strip().splitlines():
            json.loads(line)

    announce(capsys, 9, "byte-identical seeded reruns", body)
