"""Property: ``predict_batch`` is *exactly* the scalar path, for all models.

The vectorized batch implementations share the per-signature match
computation with the scalar path, so equality here is ``==``, not
``approx`` — any drift (a different BLAS reduction, a re-sorted curve)
is a bug, because batch serving must be a pure speedup.
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import (
    AverageLT,
    AverageStDevLT,
    PDFLT,
    PhaseAwareQueueModel,
    PredictionEngine,
    QueueModel,
    default_models,
)

from .conftest import CAL, make_catalog, make_signature

MODEL_FACTORIES = [
    AverageLT,
    AverageStDevLT,
    PDFLT,
    QueueModel,
    lambda: QueueModel(interpolate=False),
    lambda: PhaseAwareQueueModel(CAL),
    lambda: PhaseAwareQueueModel(CAL, interpolate=False),
]


@st.composite
def catalog_and_targets(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    configs = draw(st.integers(min_value=1, max_value=8))
    app_count = draw(st.integers(min_value=1, max_value=4))
    apps = tuple(f"app{i}" for i in range(app_count))
    observations, degradations, signatures, _cal = make_catalog(
        apps=apps, configs=configs, seed=seed
    )
    target_count = draw(st.integers(min_value=1, max_value=5))
    rhos = draw(
        st.lists(
            st.floats(min_value=0.02, max_value=0.97),
            min_size=target_count,
            max_size=target_count,
        )
    )
    targets = [
        make_signature(rho, seed=seed * 31 + i) for i, rho in enumerate(rhos)
    ]
    return observations, degradations, list(apps), targets


@given(data=catalog_and_targets())
@settings(max_examples=40)
def test_batch_equals_scalar_for_every_model(data):
    observations, degradations, apps, targets = data
    for factory in MODEL_FACTORIES:
        model = factory().fit(observations, degradations)
        pairs = [(app, target) for app in apps for target in targets]
        # Repeat some pairs so the id()-dedup path is exercised.
        pairs = pairs + pairs[: len(pairs) // 2]
        batch = model.predict_batch(pairs)
        scalar = [model.predict(app, signature) for app, signature in pairs]
        assert batch == scalar


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_engine_batch_matches_engine_scalar(seed):
    observations, degradations, signatures, _cal = make_catalog(
        apps=("a", "b", "c"), configs=6, seed=seed
    )
    engine = PredictionEngine(
        observations=observations,
        degradations=degradations,
        signatures=signatures,
        models=default_models(),
    )
    apps = sorted(signatures)
    requests = [
        (app, other, model)
        for app in apps
        for other in apps
        for model in engine.model_names
    ]
    batch = engine.predict_batch(requests)
    assert [p.predicted for p in batch] == [
        engine.predict(app, other, model) for app, other, model in requests
    ]
    assert [(p.app, p.other, p.model) for p in batch] == requests


def test_empty_batch_returns_empty():
    observations, degradations, signatures, _cal = make_catalog()
    for factory in MODEL_FACTORIES:
        model = factory().fit(observations, degradations)
        assert model.predict_batch([]) == []


def test_batch_handles_duplicate_signature_objects():
    observations, degradations, signatures, _cal = make_catalog()
    target = make_signature(0.5, seed=123)
    model = PDFLT().fit(observations, degradations)
    pairs = [("alpha", target)] * 4 + [("beta", target)] * 4
    batch = model.predict_batch(pairs)
    assert batch == [model.predict(app, sig) for app, sig in pairs]
    assert len(set(batch)) <= 2  # one value per app


def test_queue_batch_is_order_insensitive_to_pair_order():
    observations, degradations, signatures, _cal = make_catalog()
    targets = [make_signature(rho, seed=50 + i) for i, rho in enumerate([0.2, 0.6])]
    model = QueueModel().fit(observations, degradations)
    pairs = [(app, t) for app in ("alpha", "beta") for t in targets]
    forward = model.predict_batch(pairs)
    backward = model.predict_batch(pairs[::-1])
    assert forward == backward[::-1]
    assert all(isinstance(value, float) for value in forward)
    assert not any(np.isnan(forward))


def test_engine_batch_is_at_least_5x_faster_than_scalar():
    # The paper's evaluation shape: 6 apps x 40 configs, every
    # (app, other, model) triple requested 12 times.  Scalar and batch
    # passes alternate and each keeps its best of three; batch measured
    # 8 to 12 times faster on a 2-vCPU x86 host.
    apps = ("fftw", "lulesh", "mcb", "milc", "vpfft", "amg")
    observations, degradations, signatures, _cal = make_catalog(
        apps=apps, configs=40
    )
    engine = PredictionEngine(
        observations=observations,
        degradations=degradations,
        signatures=signatures,
        models=default_models(),
    )
    requests = [
        (app, other, model)
        for app in apps
        for other in apps
        for model in engine.model_names
    ] * 12

    scalar_seconds = batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        scalar = [engine.predict(*request) for request in requests]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        batch = [p.predicted for p in engine.predict_batch(requests)]
        batch_seconds = min(batch_seconds, time.perf_counter() - start)
    assert batch == scalar
    assert scalar_seconds >= 5.0 * batch_seconds, (
        f"batch {batch_seconds * 1e3:.2f} ms vs scalar "
        f"{scalar_seconds * 1e3:.2f} ms for {len(requests)} requests"
    )
