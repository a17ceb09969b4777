"""Fault rules, the seedable fault plan, and the standard plan mix.

A :class:`FaultPlan` is a seeded RNG plus an ordered list of
:class:`FaultRule`\\ s, each keyed to one named injection **site**.
Firing a site walks its rules in order; a rule that matches (site,
optional label substring, probability draw, remaining budget) injects
its fault kind:

======== ====================================================== =========
kind     effect                                                 sites
======== ====================================================== =========
error    raise :class:`ChaosError` (classified *transient*:     worker,
         the recovery policies retry it within a bounded         cad-stage,
         budget)                                                 store
reset    raise :class:`ConnectionResetError`                     wire
delay    ``time.sleep(delay_s)``                                 any
kill     ``os._exit(KILL_EXIT_CODE)`` — the worker process       worker
         dies as a segfault would, bypassing all handlers
truncate returned to the call site, which drops the tail of      wire,
         the frame/entry at a seeded fraction                    store
corrupt  returned to the call site, which flips a seeded byte    store
orphan   returned to the call site, which writes the tmp file    store
         but never publishes it (death between write and         publish
         rename)
======== ====================================================== =========

Everything is deterministic: the probability draws and the
truncate/corrupt positions come from the plan's seeded RNG, and rule
budgets (``max_fires``) either count in-process or — when the plan
carries a ``budget_dir`` — claim atomically-created marker files, so
"exactly one worker kill" holds across a whole process pool.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field, asdict
from typing import Dict, Optional, Sequence, Tuple

# ------------------------------------------------------------------- sites
SITE_WIRE_READ = "wire-read"        #: WARPNET frame about to be read
SITE_WIRE_WRITE = "wire-write"      #: WARPNET frame about to be written
SITE_STORE_LOAD = "store-load"      #: disk-store entry bytes just read
SITE_STORE_PUBLISH = "store-publish"  #: disk-store entry about to publish
SITE_WORKER_JOB = "worker-job"      #: a worker beginning a job execution
SITE_CAD_STAGE = "cad-stage"        #: a CAD flow stage about to compute

SITES = (SITE_WIRE_READ, SITE_WIRE_WRITE, SITE_STORE_LOAD,
         SITE_STORE_PUBLISH, SITE_WORKER_JOB, SITE_CAD_STAGE)

_KINDS = ("error", "reset", "delay", "kill", "truncate", "corrupt", "orphan")

#: Exit status of an injected worker kill (distinctive in pool reports).
KILL_EXIT_CODE = 43


class ChaosError(Exception):
    """An injected fault, classified **transient** by definition: it
    models the environment errors (flaky NFS, OOM-killed helper, cosmic
    ray) that a bounded retry is the correct response to.  Recovery
    policies retry exactly this type; real domain errors still fail
    fast."""


@dataclass(frozen=True)
class Injection:
    """A data-shape fault returned to the call site to apply.

    ``fraction`` is a seeded draw in ``[0, 1)`` parameterizing the
    injection (truncation point, corrupted byte position).
    """

    site: str
    kind: str
    fraction: float = 0.0

    def mangle(self, blob: bytes) -> bytes:
        """Apply this injection to a byte payload (truncate/corrupt)."""
        if not blob:
            return blob
        if self.kind == "truncate":
            return blob[:int(len(blob) * self.fraction)]
        if self.kind == "corrupt":
            position = min(len(blob) - 1, int(len(blob) * self.fraction))
            return (blob[:position]
                    + bytes([blob[position] ^ 0xFF])
                    + blob[position + 1:])
        return blob


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a plan."""

    site: str
    kind: str
    #: Chance of firing per visit (draws from the plan's seeded RNG;
    #: ``1.0`` fires on every visit and consumes no draw).
    probability: float = 1.0
    #: Total fires allowed (``None`` = unlimited).  With a plan-level
    #: ``budget_dir`` the budget spans every process sharing the plan.
    max_fires: Optional[int] = None
    #: Sleep applied by ``kind="delay"``.
    delay_s: float = 0.0
    #: Only fire when this substring occurs in the site label (a job
    #: name, stage name, entry name, or wire verb) — for targeted,
    #: fully deterministic injections.
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown injection site {self.site!r}; "
                             f"sites are {SITES}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"kinds are {_KINDS}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.max_fires is not None and self.max_fires <= 0:
            raise ValueError("max_fires must be positive (or None)")


class FaultPlan:
    """A seeded, deterministic set of fault rules plus its accounting."""

    def __init__(self, seed: int, rules: Sequence[FaultRule],
                 budget_dir=None):
        self.seed = seed
        self.rules = tuple(rules)
        #: Directory for cross-process fire budgets (marker files); when
        #: ``None`` budgets count per process.
        self.budget_dir = str(budget_dir) if budget_dir is not None else None
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._fires: Dict[int, int] = {}
        #: ``(site, kind) -> fires`` in this process.
        self.injections: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------ firing
    def fire(self, site: str, label: str = "") -> Optional[Injection]:
        """Visit ``site``: apply every matching rule, in rule order.

        Delay rules sleep here; error/reset rules raise; kill rules end
        the process.  The first matching data-shape rule (truncate /
        corrupt / orphan) is returned for the call site to apply.
        """
        returned: Optional[Injection] = None
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.match is not None and rule.match not in label:
                continue
            with self._lock:
                if rule.probability < 1.0 \
                        and self._rng.random() >= rule.probability:
                    continue
                if not self._claim_budget(index, rule):
                    continue
                key = (site, rule.kind)
                self.injections[key] = self.injections.get(key, 0) + 1
                fraction = self._rng.random()
            if rule.kind == "delay":
                time.sleep(rule.delay_s)
            elif rule.kind == "error":
                raise ChaosError(f"injected fault at {site} ({label})")
            elif rule.kind == "reset":
                raise ConnectionResetError(
                    f"chaos: injected connection reset at {site} ({label})")
            elif rule.kind == "kill":
                os._exit(KILL_EXIT_CODE)
            elif returned is None:
                returned = Injection(site=site, kind=rule.kind,
                                     fraction=fraction)
        return returned

    def _claim_budget(self, index: int, rule: FaultRule) -> bool:
        if rule.max_fires is None:
            self._fires[index] = self._fires.get(index, 0) + 1
            return True
        if self.budget_dir is None:
            fired = self._fires.get(index, 0)
            if fired >= rule.max_fires:
                return False
            self._fires[index] = fired + 1
            return True
        # Cross-process budget: each fire claims one marker file with
        # O_EXCL, so concurrent workers cannot over-fire the rule.
        for slot in range(rule.max_fires):
            marker = os.path.join(self.budget_dir,
                                  f"rule{index}-fire{slot}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL
                                 | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False

    # -------------------------------------------------------------- accounting
    def total_injections(self) -> int:
        return sum(self.injections.values())

    def summary(self) -> Dict:
        return {
            "seed": self.seed,
            "rules": len(self.rules),
            "injections": {f"{site}/{kind}": count
                           for (site, kind), count
                           in sorted(self.injections.items())},
            "total_injections": self.total_injections(),
        }

    # ------------------------------------------------------------------ codecs
    def to_plain(self) -> Dict:
        return {
            "seed": self.seed,
            "budget_dir": self.budget_dir,
            "rules": [asdict(rule) for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_plain(), separators=(",", ":"))

    @classmethod
    def from_plain(cls, plain: Dict) -> "FaultPlan":
        return cls(seed=plain["seed"],
                   rules=[FaultRule(**entry) for entry in plain["rules"]],
                   budget_dir=plain.get("budget_dir"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_plain(json.loads(text))


# --------------------------------------------------------------------- presets
def standard_plan(seed: int, budget_dir=None) -> FaultPlan:
    """The CLI's default chaos mix (``repro-warp suite --chaos-seed N``).

    Every rule is *recoverable* by the stack's recovery policies —
    bounded wire resets/truncations (client retry), store corruption and
    publish orphans (quarantine + recompute, tmp GC), transient CAD
    stage and worker faults (bounded retries), and small delays — so a
    run under this plan must produce a report identical to the
    fault-free run, just slower.  Worker kills are deliberately not in
    the mix: they are only recoverable under a process pool, and the
    targeted chaos tests cover them explicitly.
    """
    return FaultPlan(seed=seed, budget_dir=budget_dir, rules=[
        FaultRule(site=SITE_WIRE_WRITE, kind="truncate",
                  probability=0.08, max_fires=3),
        FaultRule(site=SITE_WIRE_READ, kind="reset",
                  probability=0.08, max_fires=3),
        FaultRule(site=SITE_STORE_LOAD, kind="corrupt",
                  probability=0.10, max_fires=4),
        FaultRule(site=SITE_STORE_PUBLISH, kind="orphan",
                  probability=0.10, max_fires=4),
        FaultRule(site=SITE_CAD_STAGE, kind="error",
                  probability=0.05, max_fires=2),
        FaultRule(site=SITE_CAD_STAGE, kind="delay",
                  probability=0.20, delay_s=0.002),
        FaultRule(site=SITE_WORKER_JOB, kind="error",
                  probability=0.05, max_fires=2),
        FaultRule(site=SITE_WORKER_JOB, kind="delay",
                  probability=0.25, delay_s=0.005),
    ])
