"""Pinned retry schedules of the ingest reader and the campaign supervisor.

Both compute their delays with the shared capped exponential in
:mod:`repro.backoff`; these tests pin the exact values each one
produced before it did, so the schedule cannot drift.
"""

import pytest

from repro.data import IngestConfig, ingest_file
from repro.obs.events import EventBus, MemorySink
from repro.orchestrator import (CrashingJob, Supervisor, SupervisorConfig,
                                build_campaign)
from repro.resilience import FlakyFile


def test_ingest_flaky_reads_sleep_the_capped_schedule(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("label,I1,C1\n"
                    + "".join(f"{i % 2},{i},c{i % 3}\n" for i in range(10)))
    config = IngestConfig(categorical=["C1"], continuous=["I1"],
                          chunk_rows=4, retries=4, retry_base_delay=0.75)
    sink = MemorySink()
    sleeps = []
    result = ingest_file(path, config, opener=FlakyFile(fail_reads=3),
                         sleep=sleeps.append, bus=EventBus([sink]))
    assert sleeps == [min(0.75 * 2 ** i, 2.0) for i in range(3)]
    assert sleeps[-1] == 2.0  # the cap is reached
    retries = [e.payload for e in sink.events
               if e.payload.get("kind") == "io_retry"]
    assert [r["attempt"] for r in retries] == [1, 2, 3]
    assert result.report.retries == 3
    assert result.report.rows_ok == 10


@pytest.mark.orchestrator
def test_supervisor_job_retry_delays_double_up_to_the_cap(tmp_path):
    spec = build_campaign(["LR"], ["criteo"], seeds=(0,), n_samples=300,
                          epochs=1, search_epochs=1).with_inject(
        "train:LR:criteo:s0", CrashingJob(times=99).to_inject())
    config = SupervisorConfig(workers=1, max_retries=3,
                              retry_base_delay=0.05, retry_max_delay=0.15,
                              job_timeout_s=60.0, term_grace_s=1.0,
                              heartbeat_interval_s=0.1,
                              heartbeat_timeout_s=30.0, poll_interval_s=0.02)
    sink = MemorySink()
    report = Supervisor(spec, tmp_path, config, bus=EventBus([sink])).run()
    assert report.quarantined == 1
    retries = [e.payload for e in sink.events if e.type == "job_retry"]
    assert [r["attempt"] for r in retries] == [1, 2, 3]
    assert [r["delay_s"] for r in retries] == [
        min(config.retry_base_delay * 2 ** (k - 1), config.retry_max_delay)
        for k in (1, 2, 3)]
    assert retries[-1]["delay_s"] == config.retry_max_delay
