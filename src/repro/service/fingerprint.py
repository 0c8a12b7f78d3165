"""Content-addressed keys for compile artifacts.

A warm start is only sound if the key captures *everything* the cached
result depends on:

* the **lowered statement** — a structural fingerprint of the
  pre-selection vector IR (:func:`repro.runtime.kernel_cache
  .fingerprint_stmt`): any algorithm or schedule change alters it;
* the **rule set** — a stable hash over every rewrite rule HARDBOILED
  can fire (axiomatic, supporting, and all accelerator families): any
  edit to a rule file changes the hash, so stale artifacts selected
  under the old rules are never served;
* the **backend** — compiled artifacts additionally embed generated
  kernel source, interpret artifacts do not;
* the **device spec** — selection is device-independent today, but
  artifacts are pinned to a device name so future device-dependent cost
  models invalidate cleanly (and so one store can serve a device fleet).

The rule hash covers the rules as *data* (name, query atoms, actions —
all frozen dataclasses with complete, deterministic reprs), plus the
relation vocabulary each family declares.  It deliberately does not
hash the compiled register programs: those are derived from the same
data by a deterministic compiler, and hashing the source of truth keeps
the fingerprint independent of compilation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

from ..lowering.pipeline import Lowered
from ..runtime.kernel_cache import fingerprint_stmt

def _default_families() -> Tuple[Tuple[str, Callable], ...]:
    """Every rule family selection can fire, in a deterministic order.

    Derived from the tile extractor's own registry (``_APP_RULES`` plus
    the axiomatic/supporting core it always runs), not re-enumerated
    here — a new accelerator family registered for selection changes
    the fingerprint automatically, which is the whole staleness
    guarantee.  Each entry is ``(family name, zero-arg builder)``
    returning ``(rules, relations)``.
    """
    from ..hardboiled.rules_axiomatic import axiomatic_rules
    from ..hardboiled.rules_supporting import supporting_rules
    from ..hardboiled.tile_extractor import _APP_RULES

    return (
        ("axiomatic", axiomatic_rules),
        ("supporting", supporting_rules),
        *sorted(_APP_RULES.items()),
    )


def rule_fingerprint(rule) -> str:
    """A stable hash of one rule's declarative content."""
    payload = repr((rule.name, rule.query, rule.actions))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_families(families) -> str:
    """Hash ``(family name, rules, relations)`` triples in order."""
    digest = hashlib.sha256()
    for name, builder in families:
        rules, relations = builder()
        digest.update(name.encode("utf-8"))
        digest.update(repr(sorted(relations)).encode("utf-8"))
        for rule in rules:
            digest.update(rule_fingerprint(rule).encode("utf-8"))
    return digest.hexdigest()


@lru_cache(maxsize=1)
def ruleset_fingerprint() -> str:
    """The stable hash of HARDBOILED's complete rule set.

    Computed once per process (building + hashing every family costs
    ~10 ms).  Tests that mutate rule families should call
    ``ruleset_fingerprint.cache_clear()``.
    """
    return fingerprint_families(_default_families())


@dataclass(frozen=True)
class ArtifactKey:
    """The key a compile artifact is addressed by."""

    #: structural fingerprint of the *pre-selection* lowered statement
    stmt: str
    #: :func:`ruleset_fingerprint` at compile time
    rules: str
    #: execution backend the artifact targets ("interpret" | "compile")
    backend: str
    #: device-spec name (or "host" for device-independent compiles)
    device: str
    #: saturation-schedule length the selection ran at — a shallower
    #: compile can legitimately map fewer stores, so artifacts at
    #: different depths must never be shared
    iterations: int = 14

    @property
    def digest(self) -> str:
        """The content address: sha256 over every component."""
        payload = "\n".join(
            (self.stmt, self.rules, self.backend, self.device,
             str(self.iterations))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def for_lowered(
        cls,
        lowered: Lowered,
        backend: str = "interpret",
        device: object = "host",
        rules: Optional[str] = None,
        iterations: int = 14,
    ) -> "ArtifactKey":
        """Key a lowered (pre-selection) pipeline for lookup or storage.

        ``device`` may be a string or anything with a ``name`` attribute
        (e.g. :class:`repro.targets.device.DeviceSpec`).
        """
        from ..runtime.executor import _check_backend

        device_name = getattr(device, "name", None) or str(device)
        return cls(
            stmt=fingerprint_stmt(lowered.stmt),
            rules=rules if rules is not None else ruleset_fingerprint(),
            backend=_check_backend(backend),
            device=device_name,
            iterations=iterations,
        )
