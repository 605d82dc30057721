"""Backend conformance and unit tests for the executor fabric.

Every registered :class:`~repro.core.executor.ExecutorBackend` must be
interchangeable under the scheduler: same campaign, same bytes, same
crash containment.  The conformance tests below run each backend through
the scheduler and hold them to the serial reference; the unit tests pin
the frame protocol and the deterministic pieces of the resilience
policy.
"""

from __future__ import annotations

import io
import struct

import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.executor import (
    ALL_BACKEND_NAMES,
    ResiliencePolicy,
    WorkerSpec,
    create_backend,
)
from repro.core.parallel import run_campaign_parallel
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.core.wire import MAX_FRAME_BYTES, read_frame, write_frame
from repro.errors import ConfigError

GRID = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1, 2),
    samples=2,
    seed=0,
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(GRID)


# ---------------------------------------------------------------------------
# Conformance: every backend (multiprocessing, socket) produces the
# serial bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", sorted(ALL_BACKEND_NAMES))
def test_backend_matches_serial_byte_identically(backend, serial_reference):
    result = run_campaign_parallel(GRID, jobs=2, backend=backend)
    assert result.to_json() == serial_reference.to_json()


@pytest.mark.parametrize("backend", sorted(ALL_BACKEND_NAMES))
def test_backend_contains_worker_crash(backend, serial_reference, tmp_path):
    supervisor = Supervisor(journal=IncidentJournal())
    result = run_campaign_parallel(
        GRID, jobs=2, backend=backend, supervisor=supervisor,
        _crash_spec={
            "cell": ["crc32", "itlb", 2],
            "flag": str(tmp_path / f"crashed-{backend}.flag"),
        },
    )
    assert supervisor.incident_count == 1
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    # One counted crash; every cell the dead worker held becomes a
    # bookkeeping retry record (how many it held depends on timing).
    assert kinds[0] == "worker-crash"
    assert set(kinds[1:]) == {"retry"}
    assert result.to_json() == serial_reference.to_json()


def test_create_backend_rejects_unknown_name():
    spec = WorkerSpec(
        config=GRID, core_cfg=None, supervised=False, strict=False,
        watchdog=False, checkpoint_every=None, telemetry_enabled=False,
        verify=False,
    )
    with pytest.raises(ValueError, match="unknown executor backend"):
        create_backend("carrier-pigeon", spec)


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


def test_frame_roundtrip_preserves_messages():
    stream = io.BytesIO()
    messages = [
        ("ready", 3),
        ("heartbeat", 0, 7),
        ("cell", 1, 4, {"counts": [1, 2, 3]}, 0.25),
        ("bye", 2),
    ]
    for message in messages:
        write_frame(stream, message)
    stream.seek(0)
    assert [read_frame(stream) for _ in messages] == messages
    assert read_frame(stream) is None  # clean EOF


def test_torn_frame_reads_as_eof():
    stream = io.BytesIO()
    write_frame(stream, ("cell", 0, 0, {"x": 1}, 0.0))
    torn = stream.getvalue()[:-3]  # kill mid-payload
    assert read_frame(io.BytesIO(torn)) is None
    # Torn mid-header is EOF too, not a struct error.
    assert read_frame(io.BytesIO(torn[:2])) is None


def test_absurd_frame_length_reads_as_eof():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    assert read_frame(io.BytesIO(header + b"x" * 64)) is None


def test_garbage_payload_reads_as_eof():
    payload = b"not a pickle"
    stream = io.BytesIO(struct.pack(">I", len(payload)) + payload)
    assert read_frame(stream) is None


# ---------------------------------------------------------------------------
# Resilience policy units
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_cell_and_attempt():
    policy = ResiliencePolicy()
    first = policy.backoff("crc32/regfile/1", 1)
    assert first == policy.backoff("crc32/regfile/1", 1)
    # Different cells jitter differently (with overwhelming probability
    # over the cells used here), but stay within the jitter envelope.
    for attempt in (1, 2, 3):
        for key in ("crc32/regfile/1", "crc32/itlb/2", "stringsearch/l1d/4"):
            delay = policy.backoff(key, attempt)
            base = min(
                policy.retry_max_delay,
                policy.retry_base_delay * 2 ** (attempt - 1),
            )
            assert base <= delay <= base * (1 + policy.retry_jitter)


def test_backoff_grows_then_caps():
    policy = ResiliencePolicy(
        retry_base_delay=1.0, retry_max_delay=4.0, retry_jitter=0.0
    )
    delays = [policy.backoff("cell", attempt) for attempt in range(1, 6)]
    assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]


def test_policy_defaults_validate():
    ResiliencePolicy().validate()


@pytest.mark.parametrize("overrides,fragment", [
    ({"heartbeat_interval": 0.0}, "heartbeat_interval"),
    ({"lease_factor": -1.0}, "lease_factor"),
    ({"lease_floor": 0.0}, "lease_floor"),
    ({"max_attempts": 0}, "max_attempts"),
    ({"retry_jitter": -0.1}, "retry_jitter"),
    ({"retry_base_delay": 5.0, "retry_max_delay": 1.0}, "retry_max_delay"),
    ({"heartbeat_interval": 60.0, "hang_timeout": 1.0},
     "heartbeat_interval"),
])
def test_policy_validate_rejects_bad_knobs(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ResiliencePolicy(**overrides).validate()
