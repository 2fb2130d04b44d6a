import multiprocessing
import threading

import pytest

from mindctl.model import HyperParams, TrainingSchedule, build, train
from mindctl.dataset import split

from helpers import make_toy_samples


@pytest.fixture(autouse=True)
def nothing_outlives_the_test():
    """Fail a test that leaves a thread or a child process running."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=2.0)
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, f"threads still running after the test: {alive}"
    children = multiprocessing.active_children()
    assert not children, f"child processes still running after the test: {children}"


@pytest.fixture(scope="session")
def toy_split():
    return split(make_toy_samples(), 3)


@pytest.fixture(scope="session")
def toy_model(toy_split):
    """A small model fitted to the separable toy. Session-scoped: several
    suites reuse it for inference-level checks."""
    hp = HyperParams(l2=0.0, lr=0.01, width=16, layers=7, batches=3)
    schedule = TrainingSchedule(max_epochs=30, patience=30, bptt_window=100)
    trained, _ = train(build(hp, seed=1), toy_split, schedule)
    return trained


@pytest.fixture(scope="session")
def five_class_model():
    """A model fitted to a 5-class toy so inference covers every label."""
    samples = make_toy_samples(n=400, seed=17, n_classes=5)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.0, lr=0.01, width=16, layers=7, batches=3)
    schedule = TrainingSchedule(max_epochs=60, patience=60, bptt_window=100)
    trained, _ = train(build(hp, seed=2), splits, schedule)
    return trained
