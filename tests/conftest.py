import numpy as np
import pytest


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[ACCEPTANCE] {name}: {report.outcome.upper()}")

from blockaudit import classifiers
from blockaudit import (
    DriftParams,
    EvokedParams,
    RidgeRegressor,
    Session,
    TrialEvent,
    generate_session,
    make_block_schedule,
)


def make_session(channels=2, total=64, rate=100.0, events=None, seed=0,
                 subject="s01"):
    """Tiny handcrafted session for format/segmentation tests."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((channels, total)).astype(np.float32)
    if events is None:
        events = (
            TrialEvent(trial_id=0, class_label=0, block_id=0,
                       onset_sample=4, length_samples=20),
            TrialEvent(trial_id=1, class_label=1, block_id=1,
                       onset_sample=30, length_samples=20),
        )
    return Session(samples=samples, sample_rate=rate, subject_id=subject,
                   events=tuple(events))


@pytest.fixture
def tiny_session():
    return make_session()


@pytest.fixture(scope="session")
def drift_session():
    """Small block-design session with contaminating drift only."""
    schedule = make_block_schedule(
        6, 20, stimulus_ms=500, blank_ms=1000, seed=5, blocks_per_class=4
    )
    return generate_session(
        schedule, channels=16, sample_rate=256.0,
        drift=DriftParams(5.0, 0.05, 1.0), evoked=EvokedParams(),
        subject_id="s01", seed=5,
    )


@pytest.fixture(scope="session")
def evoked_session():
    """Small session with genuine class signal and no drift."""
    schedule = make_block_schedule(
        6, 20, stimulus_ms=500, blank_ms=1000, seed=9, blocks_per_class=4
    )
    return generate_session(
        schedule, channels=16, sample_rate=256.0,
        drift=DriftParams(0.0, 0.0, 1.0),
        evoked=EvokedParams(amplitude=4.0, template_ms=150.0, center_hz=30.0),
        subject_id="s01", seed=9,
    )


def ridge_objective_gradient_norm(
    regressor: RidgeRegressor, features: np.ndarray, targets: np.ndarray
) -> float:
    """Relative norm of the regularized objective's gradient at the solution.

    Zero (to numerical precision) certifies optimality of the closed form.
    The objective is mean squared error plus l2 * ||W||^2, bias unpenalized.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    resid = regressor.predict(x) - y
    gw = 2.0 * (x.T @ resid) / n + 2.0 * regressor.l2 * regressor.weights
    gb = 2.0 * resid.mean(axis=0)
    scale = max(np.linalg.norm(regressor.weights), 1.0)
    return float(np.sqrt(np.sum(gw**2) + np.sum(gb**2)) / scale)


def gradient_check(
    model, x: np.ndarray, y: np.ndarray, epsilon: float = 1e-3,
    floor: float = 1e-8,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The instance must be small enough to perturb every parameter; dropout is
    disabled throughout.  Relative error for one parameter is
    ``|analytic - numeric| / max(|analytic|, |numeric|, floor)``.
    """
    _, grads = model.loss_and_grads(x, y)
    worst = 0.0
    for p, g in zip(model.param_arrays(), grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = model.loss_and_grads(x, y)[0]
            flat[i] = orig - epsilon
            down = model.loss_and_grads(x, y)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(gflat[i]), abs(numeric), floor)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


@pytest.fixture(params=[1, 2], ids=["blas1", "blas2"])
def blas_count(request):
    """numpy's OpenBLAS thread count getter and the count set for the test,
    1 or 2; the count in force before it is put back after it."""
    fns = classifiers._openblas_thread_fns()
    if fns is None:
        pytest.skip("no OpenBLAS thread-count function under numpy.libs")
    get, put = fns
    before = get()
    put(request.param)
    yield get, request.param
    put(before)
