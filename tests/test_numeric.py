import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from expbij.analyzer import CLASS_BIJECTIVE, ExponentialMapSpec, analyze
from expbij.linalg import RationalMatrix, rank
from expbij.numeric import (
    EvaluationOverflow,
    NumericMapInstance,
    evaluate,
    jacobian,
    multi_start_solve,
    solve,
)

M = RationalMatrix


def instance_of(W, Wt, c):
    return NumericMapInstance.from_spec(ExponentialMapSpec(M(W), M(Wt)), c)


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    seed: int
    classification: str
    contradictions: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.contradictions


def probe_bijectivity(spec: ExponentialMapSpec, trials: int, seed: int, starts: int = 6) -> ProbeReport:
    """Monte Carlo falsifier of the exact layer: when the exact verdict says
    bijective, every sampled target must be solvable and no second solution
    may appear."""
    classification = analyze(spec).classification
    rng = np.random.default_rng(seed)
    contradictions: list[str] = []
    for trial in range(trials):
        c = np.exp(rng.uniform(-1.0, 1.0, spec.n))
        instance = NumericMapInstance.from_spec(spec, c)
        x_star = rng.uniform(-2.0, 2.0, spec.d_tilde)
        y = evaluate(instance, x_star)
        solutions = multi_start_solve(instance, y, starts=starts, seed=seed + 7919 * (trial + 1))
        if classification == CLASS_BIJECTIVE:
            if not solutions:
                contradictions.append(f"trial {trial}: no solution recovered for an attained target")
            elif len(solutions) > 1:
                contradictions.append(f"trial {trial}: {len(solutions)} distinct preimages found")
    return ProbeReport(trials=trials, seed=seed, classification=classification,
                       contradictions=tuple(contradictions))


def test_evaluate_examples():
    inst = instance_of([[1]], [[1]], [2])
    assert evaluate(inst, [math.log(3)]) == pytest.approx([6.0])

    inst = instance_of([[1, 0], [0, 1]], [[1, 0], [0, 1]], [1, 1])
    assert evaluate(inst, [0, 0]) == pytest.approx([1.0, 1.0])

    inst = instance_of([[1, 0, -1], [0, 1, 0]], [[1, 0, -1], [0, 1, -1]], [1, 1, 1])
    assert evaluate(inst, [0, 0]) == pytest.approx([0.0, 1.0])

    with pytest.raises(EvaluationOverflow):
        evaluate(instance_of([[1]], [[1]], [1]), [800.0])


def test_jacobian_examples():
    inst = instance_of([[1, 0], [0, 1]], [[1, 0], [0, 1]], [1, 1])
    assert jacobian(inst, [0, 0]) == pytest.approx(np.eye(2))

    inst = instance_of([[1]], [[1]], [2])
    assert jacobian(inst, [0]) == pytest.approx(np.array([[2.0]]))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(20240815)
    inst = instance_of(
        [[1, 0, -1], [0, 1, 0]],
        [[1, 0, -1], [0, 1, -1]],
        [1.0, 0.5, 2.0],
    )
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, 2)
        J = jacobian(inst, x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            col = (evaluate(inst, x + e) - evaluate(inst, x - e)) / (2 * h)
            denom = np.maximum(np.abs(J[:, j]), 1.0)
            assert np.max(np.abs(col - J[:, j]) / denom) < 1e-6


def test_solve_examples():
    inst = instance_of([[1, 0], [0, 1]], [[1, 0], [0, 1]], [1, 1])
    res = solve(inst, [1, 1])
    assert res.converged and np.max(np.abs(res.x)) < 1e-10

    inst = instance_of([[1]], [[1]], [2])
    res = solve(inst, [6.0])
    assert res.converged and abs(res.x[0] - math.log(3)) < 1e-10

    inst = instance_of([[1, 0, -1], [0, 1, 0]], [[1, 0, -1], [0, 1, -1]], [1, 1, 1])
    x_star = np.array([0.3, -0.7])
    res = solve(inst, evaluate(inst, x_star))
    assert res.converged and np.max(np.abs(res.x - x_star)) < 1e-6


def test_solve_outside_cone_does_not_claim_convergence():
    # target outside the closed cone of an always-positive 1-d map
    inst = instance_of([[1]], [[1]], [1])
    res = solve(inst, [-1.0])
    assert not res.converged


def test_multi_start_finds_two_preimages_when_not_injective():
    # c1 e^x + c2 e^-x = y has two roots for y above the minimum
    inst = instance_of([[1, 1]], [[1, -1]], [1.0, 1.0])
    sols = multi_start_solve(inst, [3.0], starts=12, seed=7)
    assert len(sols) == 2
    # bisection oracle: roots of e^x + e^-x = 3 are +-arccosh(3/2)
    expected = math.acosh(1.5)
    assert sorted(round(float(s[0]), 6) for s in sols) == [
        round(-expected, 6), round(expected, 6)]


def test_round_trip_on_bijective_random_instances():
    rng = random.Random(61803)
    np_rng = np.random.default_rng(61803)
    done = 0
    while done < 20:
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        W = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if rank(W) < d:
            continue
        spec = ExponentialMapSpec(W, W)  # equal matrices are always bijective
        c = np.exp(np_rng.uniform(-1, 1, n))
        inst = NumericMapInstance.from_spec(spec, c)
        x_star = np_rng.uniform(-1.5, 1.5, d)
        res = solve(inst, evaluate(inst, x_star))
        assert res.converged and res.residual <= 1e-10 * (1 + np.linalg.norm(evaluate(inst, x_star)))
        assert np.max(np.abs(res.x - x_star)) < 1e-6
        done += 1


def test_probe_bijectivity_consistent_on_fixtures():
    spec = ExponentialMapSpec(M([[1, 0, -1], [0, 1, 0]]), M([[1, 0, -1], [0, 1, -1]]))
    report = probe_bijectivity(spec, trials=25, seed=99)
    assert report.classification == CLASS_BIJECTIVE
    assert report.consistent

    noninj = ExponentialMapSpec(M([[1, 1]]), M([[1, -1]]))
    report = probe_bijectivity(noninj, trials=10, seed=5)
    assert report.classification == "not-injective"
    assert report.consistent  # probe only asserts against bijective verdicts

