"""Deterministic fault injection for the warp service stack.

Every failure mode the service stack recovers from has a named
**injection site** here — a point in production code where a seeded
:class:`~repro.chaos.plan.FaultPlan` can inject exceptions, delays,
truncated frames, corrupted store entries or worker kills on demand.
The recovery policies (pool watchdog + isolated retries, client
retry/backoff, store corruption quarantine, CAD-stage transient
retries, gateway drain) are ordinary production code; this package only
provides the deterministic way to *exercise* them, so the chaos
differential harness (``tests/test_chaos.py``) can assert that a run
under faults with recovery enabled produces a report identical to the
fault-free run — graceful degradation means slower, never different.

Zero overhead when disabled: the hot call sites gate on the
module-level :data:`ACTIVE_PLAN` being ``None`` (the same pattern as
the ``if hooks:`` observer guard in the engines' generated code)::

    from .. import chaos
    ...
    if chaos.ACTIVE_PLAN is not None:
        injection = chaos.fire(chaos.SITE_STORE_LOAD, label=name)

With no plan installed that is one module attribute load and an ``is``
check; no function is called, nothing is allocated.

Plans reach pool worker processes the same way the persistent store
does: :func:`export_plan_to_environment` publishes the plan spec (JSON)
under :data:`PLAN_ENV_VAR`, and the worker entry point calls
:func:`ensure_process_plan` which installs it once per process.  Rules
that must fire a bounded number of times *across* processes (e.g. "kill
exactly one worker") use a ``budget_dir`` of atomically-created marker
files, keeping multi-process chaos runs deterministic.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from .plan import (
    ChaosError,
    FaultPlan,
    FaultRule,
    Injection,
    KILL_EXIT_CODE,
    SITE_CAD_STAGE,
    SITE_STORE_LOAD,
    SITE_STORE_PUBLISH,
    SITE_WIRE_READ,
    SITE_WIRE_WRITE,
    SITE_WORKER_JOB,
    SITES,
    standard_plan,
)

#: Environment variable carrying a JSON plan spec into worker processes
#: (same shipping mechanism as ``REPRO_CAD_STORE``).
PLAN_ENV_VAR = "REPRO_CHAOS_PLAN"

#: The process-wide installed plan, or ``None`` (the common case).  Hot
#: call sites read this directly; everything else goes through
#: :func:`install_plan` / :func:`clear_plan`.
ACTIVE_PLAN: Optional[FaultPlan] = None

#: Pid that last checked :data:`PLAN_ENV_VAR` — per *process*, so a
#: forked pool worker (fresh pid) re-reads the environment its parent
#: exported even though it inherited the parent's module state.
_ENV_CHECKED_PID: Optional[int] = None


def fire(site: str, label: str = "") -> Optional[Injection]:
    """Fire the installed plan at ``site`` (no-op without a plan).

    Delays are slept, error/reset/kill rules raise (or exit) from here;
    data-shape rules (truncate / corrupt / orphan) come back as an
    :class:`Injection` for the call site to apply, since only it knows
    the bytes involved.
    """
    plan = ACTIVE_PLAN
    if plan is None:
        return None
    return plan.fire(site, label)


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as this process's active plan."""
    global ACTIVE_PLAN
    ACTIVE_PLAN = plan
    return plan


def clear_plan() -> None:
    """Deactivate fault injection in this process."""
    global ACTIVE_PLAN, _ENV_CHECKED_PID
    ACTIVE_PLAN = None
    _ENV_CHECKED_PID = None


def export_plan_to_environment(plan: FaultPlan) -> None:
    """Publish ``plan`` for worker processes created afterwards."""
    os.environ[PLAN_ENV_VAR] = plan.to_json()


def clear_environment_plan() -> None:
    os.environ.pop(PLAN_ENV_VAR, None)


def ensure_process_plan() -> None:
    """Install the environment-exported plan in this process, once.

    Called from the pool worker entry point; cached per pid so the check
    costs one comparison per job in the steady state, and a forked child
    (whose pid differs from the parent that populated the cache) still
    picks the plan up.
    """
    global _ENV_CHECKED_PID
    if ACTIVE_PLAN is not None or _ENV_CHECKED_PID == os.getpid():
        return
    _ENV_CHECKED_PID = os.getpid()
    spec = os.environ.get(PLAN_ENV_VAR)
    if spec:
        install_plan(FaultPlan.from_json(spec))


@contextmanager
def active_plan(plan: FaultPlan, export: bool = False):
    """Context manager: install ``plan`` (and optionally export it to
    worker processes), restoring the previous state on exit."""
    global ACTIVE_PLAN
    previous = ACTIVE_PLAN
    install_plan(plan)
    if export:
        export_plan_to_environment(plan)
    try:
        yield plan
    finally:
        ACTIVE_PLAN = previous
        if export:
            clear_environment_plan()


__all__ = [
    "ACTIVE_PLAN",
    "ChaosError",
    "FaultPlan",
    "FaultRule",
    "Injection",
    "KILL_EXIT_CODE",
    "PLAN_ENV_VAR",
    "SITES",
    "SITE_CAD_STAGE",
    "SITE_STORE_LOAD",
    "SITE_STORE_PUBLISH",
    "SITE_WIRE_READ",
    "SITE_WIRE_WRITE",
    "SITE_WORKER_JOB",
    "active_plan",
    "clear_environment_plan",
    "clear_plan",
    "ensure_process_plan",
    "export_plan_to_environment",
    "fire",
    "install_plan",
    "standard_plan",
]
