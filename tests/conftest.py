import threading
from dataclasses import fields

import pytest

from cellray import cli
from cellray.geometry import RayBatch
from cellray.optics import Media, Medium, Wavelength

# Blue-light cortical operating point used across the suite.
CELL = Medium(n=1.36, mu_a=0.9, mu_s_prime=3.43)
TISSUE = Medium(n=1.35, mu_a=1.34, mu_s_prime=3.43)


@pytest.fixture(autouse=True)
def forget_last_channel():
    """Start every test without the channel cellray.cli kept from an earlier one."""
    cli._last_channel.clear()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a non-daemon thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before and not t.daemon]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture
def media() -> Media:
    return Media(cell=CELL, tissue=TISSUE)


@pytest.fixture
def lam() -> Wavelength:
    return Wavelength(456.0)


def reversed_batch(batch: RayBatch) -> RayBatch:
    """The batch with its rays in reverse order: every array sliced [::-1]."""
    return RayBatch(**{f.name: getattr(batch, f.name)[::-1] for f in fields(RayBatch)})
