"""Sweep campaigns with a persistent, config-addressed result cache.

The layer between one measurement and the paper's figures:

* :class:`~repro.campaign.spec.RunSpec` — the canonical, normalized,
  hashable identity of one run (resolved workload kwargs, canonicalized
  cluster shape, source fingerprint);
* :class:`~repro.campaign.store.ResultStore` — the on-disk JSON store
  under ``.repro-cache/``, fingerprint-invalidated, checksummed and
  self-healing;
* :func:`~repro.campaign.runner.run_campaign` — shard a grid of specs
  across worker processes under the
  :class:`~repro.campaign.supervisor.CampaignSupervisor` (retries,
  crash recovery, quarantine) and merge deterministically; the store is
  the record of finished work, so a rerun warm-starts;
* :mod:`~repro.campaign.chaos` — seeded fault injection for proving the
  recovery machinery converges to fault-free results;
* ``python -m repro sweep`` — the CLI over all of it.

See ``docs/CAMPAIGN.md``.
"""

from repro.campaign.chaos import (
    ChaosInjectedError,
    ChaosSchedule,
    corrupt_store_entry,
)
from repro.campaign.runner import (
    CampaignResult,
    CampaignRow,
    build_campaign,
    execute_spec,
    format_campaign_failures,
    format_campaign_stats,
    format_campaign_table,
    load_campaign_file,
    run_campaign,
)
from repro.campaign.serialize import (
    UncacheableRunError,
    payload_checksum,
    run_from_payload,
    run_to_payload,
    summarize_result,
)
from repro.campaign.spec import RunSpec, build_cluster, code_fingerprint
from repro.campaign.store import ResultStore, default_store, reset_default_store
from repro.campaign.supervisor import (
    COMPLETED_OUTCOMES,
    OUTCOME_LOST_WORKER,
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    OUTCOME_RETRIED,
    CampaignSupervisor,
    SpecRecord,
)
from repro.errors import CampaignError, SpecQuarantinedError, WorkerLostError

__all__ = [
    "COMPLETED_OUTCOMES",
    "CampaignError",
    "CampaignResult",
    "CampaignRow",
    "CampaignSupervisor",
    "ChaosInjectedError",
    "ChaosSchedule",
    "OUTCOME_LOST_WORKER",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "OUTCOME_RETRIED",
    "ResultStore",
    "RunSpec",
    "SpecQuarantinedError",
    "SpecRecord",
    "UncacheableRunError",
    "WorkerLostError",
    "build_campaign",
    "build_cluster",
    "code_fingerprint",
    "corrupt_store_entry",
    "default_store",
    "execute_spec",
    "format_campaign_failures",
    "format_campaign_stats",
    "format_campaign_table",
    "load_campaign_file",
    "payload_checksum",
    "reset_default_store",
    "run_campaign",
    "run_from_payload",
    "run_to_payload",
    "summarize_result",
]
