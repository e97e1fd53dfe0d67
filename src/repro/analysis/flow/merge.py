"""The deterministic-merge registry: types workers may safely mutate.

The sharded fleet campaign's bit-identity contract rests on one
discipline: anything a worker accumulates is merged *after* all workers
finish, in chip order, through an operation whose result does not depend
on worker scheduling.  The types below register the merge operation that makes
them safe; the shared-state pass (RPR3xx) exempts mutations of objects
whose static type is registered here and flags everything else.

Registering a type is a *claim* — the claim is kept honest by the
runtime determinism sanitizer (``repro campaign --sanitize``), which
hashes per-chip state at phase boundaries and fails loudly when a merge
is not actually deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MergeRule:
    """One registered type and the operation that merges it."""

    type_name: str
    via: str
    note: str = ""


#: The repo's deterministic-merge vocabulary (see the chip-order merge in
#: repro.lab.fleet.run_fleet_campaign).
DEFAULT_MERGES: tuple[MergeRule, ...] = (
    MergeRule("DataLog", "DataLog.merge", "stable shard concatenation in chip order"),
    # Fleet engine (repro.lab.fleet): each shard owns a contiguous chip
    # range, so its state never crosses workers; the parent reassembles
    # shard outputs in chip order, which makes the merge scheduling-free.
    MergeRule(
        "FleetBench",
        "run_fleet_campaign",
        "per-chip logs keyed by chip index; shard outputs concatenate in chip order",
    ),
    MergeRule(
        "FleetChipSummary",
        "run_fleet_campaign",
        "immutable digest; shard lists concatenate in chip order",
    ),
    MergeRule(
        "FleetTraps",
        "run_fleet_campaign",
        "struct-of-arrays trap state is shard-private (contiguous chip range)",
    ),
    MergeRule(
        "BinnedFleetTraps",
        "run_fleet_campaign",
        "binned occupancy grid is shard-private (contiguous chip range)",
    ),
)


@dataclass
class MergeRegistry:
    """Type names whose cross-worker mutation merges deterministically."""

    rules: dict[str, MergeRule] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "MergeRegistry":
        """A registry pre-loaded with the repo's known-safe types."""
        registry = cls()
        for rule in DEFAULT_MERGES:
            registry.rules[rule.type_name] = rule
        return registry

    def register(self, type_name: str, via: str, note: str = "") -> MergeRule:
        """Claim that ``type_name`` merges deterministically through ``via``.

        Re-registering with a different operation raises — two competing
        claims about the same type is a bug in the claim, not a merge.
        """
        if not type_name or not via:
            raise ConfigurationError("a merge rule needs a type name and an operation")
        existing = self.rules.get(type_name)
        if existing is not None and existing.via != via:
            raise ConfigurationError(
                f"type {type_name!r} already registered with merge "
                f"{existing.via!r}, not {via!r}"
            )
        rule = MergeRule(type_name, via, note)
        self.rules[type_name] = rule
        return rule

    def is_safe(self, type_name: str) -> bool:
        """Whether mutations of this (bare) type name are merge-covered."""
        return type_name in self.rules

    def __contains__(self, type_name: str) -> bool:
        return self.is_safe(type_name)

    def __len__(self) -> int:
        return len(self.rules)
