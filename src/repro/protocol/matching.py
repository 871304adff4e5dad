"""The service provider's matching engine: planned, batched HVE evaluation.

The paper's cost model charges the service provider ``1 + 2k`` pairings per
(ciphertext, token) evaluation; everything else it does is bookkeeping.  The
seed implementation nevertheless paid real overheads around every pairing:
token lists were rebuilt per user, ``non_star_positions`` tuples were
recomputed per query and every group operation allocated a fresh element.
This module centralises the hot path behind one subsystem so those costs are
paid once per *alert batch*, not once per (user, token):

* :class:`TokenPlan` -- built once per batch of alerts.  Patterns are
  deduplicated across zones/batches (two alerts covering overlapping areas
  often minimize to shared patterns), tokens are ordered cheapest-first
  (fewest non-star bits) so short-circuiting tends to hit minimal-pairing
  tokens early, and each entry carries the token's cached
  ``non_star_positions``.  On top of exact-pattern dedupe the plan knows the
  *subsumption* lattice of its patterns: a pattern is a specialisation of a
  wildcard pattern when every index it accepts is also accepted by the
  wildcard, so a cached non-match of the general pattern answers the
  specialised one for free (and a specialised match answers the general one).
* :class:`MatchingEngine` -- the single matching path, used by
  :class:`~repro.protocol.entities.ServiceProvider` (and through it the alert
  system and the service session); :meth:`MatchingEngine.match_store` matches
  a batch of alerts against a :class:`~repro.protocol.store.CiphertextStore`
  in one pass.  Strategies: ``"naive"`` replicates the seed's
  element-wise evaluation exactly (parity/regression testing), ``"planned"``
  evaluates through the plan with the fused exponent-arithmetic path
  (:meth:`~repro.crypto.hve.HVE.matches_via_plan`).  Both record identical
  :class:`~repro.crypto.counting.PairingCounter` totals for the same token
  order -- the paper's metric is preserved bit-exactly.
* **Outcome reuse** -- the engine remembers each user's (sequence number,
  outcome) per alert and evaluates only the (user, alert) entries whose
  sequence number changed: an unchanged ciphertext can never change its
  match outcome, so notifications are identical to a full re-evaluation, and
  a reused outcome is charged zero pairings.  The remembered state
  round-trips through :meth:`MatchingEngine.export_state` /
  :meth:`MatchingEngine.import_state`, which is how standing alerts survive
  provider restarts (see :meth:`repro.protocol.store.CiphertextStore.save`).
  Callers drop the state of one-shot alerts (:meth:`MatchingEngine.forget_alert`)
  and of expired users (:meth:`MatchingEngine.forget_users`) so it stays
  bounded by the standing alerts times the live population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.crypto.backends import FusedProgram
from repro.crypto.hve import HVE, STAR, HVECiphertext, HVEToken
from repro.protocol.messages import Notification, TokenBatch

__all__ = [
    "MATCHING_STRATEGIES",
    "TOKEN_ORDERS",
    "MatchCandidate",
    "MatchingOptions",
    "PassStats",
    "PlannedToken",
    "TokenPlan",
    "MatchingEngine",
    "pattern_subsumes",
]

#: Recognised values of :attr:`MatchingOptions.strategy`.
MATCHING_STRATEGIES = ("naive", "planned")

#: Recognised values of :attr:`MatchingOptions.order`.
TOKEN_ORDERS = ("declared", "cheapest")

#: Stand-in for a user without a remembered outcome: no sequence number equals it.
_UNSEEN = (None, False)


def pattern_subsumes(general: str, specific: str) -> bool:
    """True if every index accepted by ``specific`` is accepted by ``general``.

    ``general`` subsumes ``specific`` exactly when, at every position where
    ``general`` pins a concrete bit, ``specific`` pins the same bit.  A
    pattern never subsumes itself (equal patterns are the exact-dedupe case,
    handled by slot sharing).  Examples: ``1**`` subsumes ``1*0`` and ``110``;
    ``10*`` does not subsume ``1**``.
    """
    if len(general) != len(specific):
        raise ValueError("patterns must have equal width")
    if general == specific:
        return False
    return all(g == STAR or g == s for g, s in zip(general, specific))


@dataclass
class PassStats:
    """Work accounting of the engine's most recent matching pass.

    Reset at the start of every :meth:`MatchingEngine.match` /
    :meth:`~MatchingEngine.match_store` call and surfaced by the session
    service in its receipts and observer metrics.  ``fused_evals`` counts
    backend :meth:`~repro.crypto.backends.base.GroupBackend.fused_eval`
    worklist calls (a pass makes at most one, for its whole candidate list);
    ``precomp_hits`` counts exponentiations served from fixed-base
    precomputation tables plus per-key program-cache hits.
    """

    candidates: int = 0
    zones_evaluated: int = 0
    fused_evals: int = 0
    precomp_hits: int = 0


@dataclass(frozen=True)
class MatchCandidate:
    """One stored ciphertext to be matched, plus the metadata the engine needs.

    ``sequence_number`` identifies the report revision; the engine uses it to
    detect users whose ciphertext is unchanged since the previous evaluation
    of an alert.  A pass holds at most one candidate per user.
    """

    user_id: str
    ciphertext: HVECiphertext
    sequence_number: int = 0


@dataclass(frozen=True)
class MatchingOptions:
    """Tunables of a :class:`MatchingEngine`.

    Parameters
    ----------
    strategy:
        ``"planned"`` (default) evaluates through a :class:`TokenPlan` with
        the fused exponent-arithmetic path; ``"naive"`` replicates the seed's
        element-wise evaluation for parity testing.
    order:
        Token evaluation order within each alert: ``"cheapest"`` (default)
        sorts by pairing cost so short-circuiting saves the most,
        ``"declared"`` keeps the order tokens were issued in (required when
        comparing pairing counts against the naive path).
    dedupe:
        Evaluate each distinct pattern at most once per ciphertext, sharing
        the outcome across alerts that contain the same pattern.
    subsume:
        Additionally propagate outcomes along the pattern-subsumption lattice:
        a non-match of a wildcard pattern is reused as the (non-)match of
        every specialisation of it, and a specialised match answers its
        generalisations.  Only effective when ``dedupe`` is on; never changes
        notifications, only saves pairings.
    fused:
        Hand whole evaluation worklists to the crypto backend as one
        :class:`~repro.crypto.backends.base.FusedProgram` call instead of
        evaluating (candidate, token) pairs through per-call Python dispatch.
        Only effective with the planned strategy; notifications and
        :class:`~repro.crypto.counting.PairingCounter` totals are bit-exact
        with the scalar path (property-tested), so this is purely a
        performance switch.  ``False`` forces the scalar planned evaluator.
    fused_pack_min_jobs:
        Worklist size from which the fused path switches to the resident
        packed-column evaluator
        (:class:`~repro.crypto.backends.base.FusedWorklist`): ciphertext
        exponents packed into big-integer columns, evaluated per token in a
        handful of huge multiplications, patched in place as users move.
        Below the threshold the plain fused call runs -- packing has a
        per-worklist build cost that only amortises over enough users.
        Bit-exact either way; parity tests force ``1`` to exercise the
        packed path on tiny worklists.
    """

    strategy: str = "planned"
    order: str = "cheapest"
    dedupe: bool = True
    subsume: bool = True
    fused: bool = True
    fused_pack_min_jobs: int = 64

    def __post_init__(self) -> None:
        if self.strategy not in MATCHING_STRATEGIES:
            raise ValueError(f"unknown matching strategy {self.strategy!r}; expected one of {MATCHING_STRATEGIES}")
        if self.order not in TOKEN_ORDERS:
            raise ValueError(f"unknown token order {self.order!r}; expected one of {TOKEN_ORDERS}")
        if self.fused_pack_min_jobs < 1:
            raise ValueError("fused_pack_min_jobs must be at least 1")


@dataclass(frozen=True)
class PlannedToken:
    """One token of a :class:`TokenPlan`, with its precomputed evaluation facts.

    ``slot`` indexes the plan's unique-pattern table: entries of different
    alerts that share a pattern share a slot, which is what lets the engine
    reuse one query outcome across alerts.
    """

    token: HVEToken
    positions: tuple[int, ...]
    cost: int
    slot: int


class TokenPlan:
    """An evaluation plan for a batch of alerts, built once per declaration.

    Parameters
    ----------
    batches:
        The token batches (one per alert) to plan.
    order:
        ``"cheapest"`` or ``"declared"``; see :class:`MatchingOptions`.
    dedupe:
        Share slots between equal patterns across alerts; see
        :class:`MatchingOptions`.
    subsume:
        Precompute, per unique pattern, which other unique patterns of the
        plan subsume it (accept a superset of indexes); evaluation then
        propagates outcomes along those edges.  Requires ``dedupe`` (silently
        off otherwise, since without slot sharing there is no cross-alert
        outcome cache to propagate through).
    reduce:
        Transitively reduce the generaliser DAG at plan time: an edge
        ``g -> s`` is dropped when ``g`` also subsumes another generaliser of
        ``s`` (subsumption is a strict partial order, so the edge is implied).
        With deeply nested zones the full closure holds O(depth) ancestors per
        pattern -- O(depth^2) edges along a nesting chain -- while the reduced
        DAG keeps only direct parents.  Evaluation walks the reduced edges
        recursively, reaching exactly the ancestors the closure lists, so
        outcomes and pairing counts are unchanged (property-tested).  Only
        meaningful when ``subsume`` is on.
    """

    def __init__(
        self,
        batches: Sequence[TokenBatch],
        order: str = "cheapest",
        dedupe: bool = True,
        subsume: bool = True,
        reduce: bool = True,
    ):
        if order not in TOKEN_ORDERS:
            raise ValueError(f"unknown token order {order!r}; expected one of {TOKEN_ORDERS}")
        batches = tuple(batches)
        if not batches:
            raise ValueError("a token plan needs at least one batch")
        widths = {token.width for batch in batches for token in batch.tokens}
        if len(widths) > 1:
            raise ValueError(f"all tokens in a plan must share one width, found {sorted(widths)}")

        self.order = order
        self.dedupe = dedupe
        self.subsume = bool(subsume and dedupe)
        slots: dict[str, int] = {}
        running = 0
        entries_by_alert: list[tuple[str, tuple[PlannedToken, ...]]] = []
        for batch in batches:
            entries = []
            for token in batch.tokens:
                unique_slot = slots.setdefault(token.pattern, len(slots))
                slot = unique_slot if dedupe else running
                running += 1
                entries.append(
                    PlannedToken(
                        token=token,
                        positions=token.non_star_positions,
                        cost=token.pairing_cost,
                        slot=slot,
                    )
                )
            if order == "cheapest":
                entries.sort(key=lambda entry: entry.cost)
            entries_by_alert.append((batch.alert_id, tuple(entries)))
        self._entries_by_alert = tuple(entries_by_alert)
        self.total_tokens = running
        self.unique_patterns = len(slots)
        self.reduced = bool(reduce and self.subsume)
        generalizers = self._compute_generalizers(slots) if self.subsume else None
        if self.reduced and generalizers is not None:
            generalizers = self._transitive_reduction(generalizers)
        self._generalizers = generalizers

    @staticmethod
    def _compute_generalizers(slots: Mapping[str, int]) -> tuple[tuple[int, ...], ...]:
        """Per unique slot, the slots whose patterns strictly subsume it."""
        patterns = sorted(slots, key=slots.__getitem__)
        generalizers: list[tuple[int, ...]] = []
        for specific in patterns:
            generalizers.append(
                tuple(
                    slots[general]
                    for general in patterns
                    if pattern_subsumes(general, specific)
                )
            )
        return tuple(generalizers)

    @staticmethod
    def _transitive_reduction(generalizers: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
        """Keep only the direct generalisers of each slot.

        ``generalizers`` holds, per slot, the *full* ancestor set under
        subsumption (the relation is transitive, so ancestor sets are
        transitively closed).  An ancestor ``g`` of ``s`` is redundant exactly
        when it is also an ancestor of another ancestor ``h`` of ``s`` --
        outcome propagation then reaches ``g`` through ``h``.
        """
        ancestor_sets = [set(gens) for gens in generalizers]
        return tuple(
            tuple(
                g
                for g in gens
                if not any(g in ancestor_sets[h] for h in gens if h != g)
            )
            for gens in generalizers
        )

    @property
    def alert_ids(self) -> tuple[str, ...]:
        """The alert ids covered by this plan, in declaration order."""
        return tuple(alert_id for alert_id, _ in self._entries_by_alert)

    @property
    def entries_by_alert(self) -> tuple[tuple[str, tuple[PlannedToken, ...]], ...]:
        """Per-alert planned tokens, in evaluation order."""
        return self._entries_by_alert

    @property
    def generalizers(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """Per-slot subsuming slots (``None`` when subsumption is off).

        With ``reduce`` (the default) these are the *direct* generalisers
        only; the full ancestor set is reachable by walking the edges
        transitively, which is exactly what evaluation does.
        """
        return self._generalizers

    @property
    def generalizer_edges(self) -> int:
        """Total subsumption edges the plan stores (0 when subsumption is off)."""
        if self._generalizers is None:
            return 0
        return sum(len(gens) for gens in self._generalizers)

    @property
    def duplicate_tokens(self) -> int:
        """Tokens whose pattern also appears elsewhere in the plan."""
        return self.total_tokens - self.unique_patterns

    @property
    def subsumable_patterns(self) -> int:
        """Unique patterns with at least one generaliser in the plan.

        Each such pattern can potentially be answered without pairings: a
        cached non-match of any of its generalisers settles it.
        """
        if self._generalizers is None:
            return 0
        return sum(1 for gens in self._generalizers if gens)

    @property
    def pairing_cost_per_ciphertext(self) -> int:
        """Worst-case pairings (no short-circuit) to evaluate one ciphertext.

        With deduplication each distinct pattern is charged once; without it
        every token occurrence is charged, matching the naive path's bound.
        Subsumption can only reduce the realised cost below this bound.
        """
        if self.dedupe:
            seen: set[int] = set()
            cost = 0
            for _, entries in self._entries_by_alert:
                for entry in entries:
                    if entry.slot not in seen:
                        seen.add(entry.slot)
                        cost += entry.cost
            return cost
        return sum(entry.cost for _, entries in self._entries_by_alert for entry in entries)

# ----------------------------------------------------------------------
# Evaluator construction
# ----------------------------------------------------------------------
Evaluator = Callable[[HVECiphertext, int, dict[int, bool]], bool]


def _make_naive_evaluator(hve: HVE, token_lists: Sequence[Sequence[HVEToken]]) -> Evaluator:
    """Element-wise evaluation, exactly the seed's per-(user, token) path."""

    def evaluate(ciphertext: HVECiphertext, batch_index: int, shared: dict[int, bool]) -> bool:
        return hve.matches_any(ciphertext, token_lists[batch_index])

    return evaluate


def _make_planned_evaluator(hve: HVE, plan: TokenPlan) -> Evaluator:
    """Plan-driven evaluation through the fused exponent-arithmetic path.

    ``shared`` is the per-candidate slot cache: when deduplication is on,
    alerts sharing a pattern resolve from the cache instead of paying the
    pairings again.  With subsumption, the cache is additionally consulted
    through the plan's generaliser edges -- a cached ``False`` for a wildcard
    pattern settles every specialisation of it, and a fresh ``True`` for a
    specialisation back-fills its generalisers.

    Edges are walked recursively, so the evaluator is agnostic to whether the
    plan stores the full generaliser closure or its transitive reduction: the
    set of ancestors reached is the same either way.
    """
    entries_for_batch = tuple(entries for _, entries in plan.entries_by_alert)
    generalizers = plan.generalizers

    def ancestor_failed(slot: int, shared: dict[int, bool]) -> bool:
        # A superset pattern that already failed settles this specialisation
        # without pairings.  A True ancestor ends its branch: by the back-fill
        # invariant every ancestor of a True node is already True, so no False
        # can sit above it.
        stack = list(generalizers[slot])
        seen: set[int] = set()
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            outcome = shared.get(g)
            if outcome is False:
                return True
            if outcome is None:
                stack.extend(generalizers[g])
        return False

    def backfill_true(slot: int, shared: dict[int, bool]) -> None:
        # This pattern matched, so every pattern accepting a superset of its
        # indexes matches too.
        stack = list(generalizers[slot])
        seen: set[int] = set()
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            if shared.get(g) is None:
                shared[g] = True
            stack.extend(generalizers[g])

    def evaluate(ciphertext: HVECiphertext, batch_index: int, shared: dict[int, bool]) -> bool:
        for entry in entries_for_batch[batch_index]:
            outcome = shared.get(entry.slot)
            if outcome is None:
                if (
                    generalizers is not None
                    and generalizers[entry.slot]
                    and ancestor_failed(entry.slot, shared)
                ):
                    outcome = False
                else:
                    outcome = hve.matches_via_plan(ciphertext, entry.token, entry.positions)
                    if outcome and generalizers is not None and generalizers[entry.slot]:
                        backfill_true(entry.slot, shared)
                shared[entry.slot] = outcome
            if outcome:
                return True
        return False

    return evaluate


def _compile_fused_program(hve: HVE, plan: TokenPlan) -> FusedProgram:
    """Flatten a :class:`TokenPlan` into a backend-executable fused program.

    Token discrete logs are resolved once here; the backend's evaluation loop
    then touches no group objects at all.  Entry order, slots, costs and
    subsumption edges are taken verbatim from the plan, which is what keeps
    the fused path's outcomes and pairing charges bit-exact with the scalar
    planned evaluator.
    """
    batches = tuple(
        tuple(
            (
                entry.slot,
                entry.token.k0._discrete_log(),
                tuple(
                    (
                        position,
                        entry.token.k1[position]._discrete_log(),
                        entry.token.k2[position]._discrete_log(),
                    )
                    for position in entry.positions
                ),
                entry.cost,
            )
            for entry in entries
        )
        for _, entries in plan.entries_by_alert
    )
    return FusedProgram(
        modulus=hve.group.order,
        match_exp=hve._match_exp,
        batches=batches,
        generalizers=plan.generalizers,
        factors=(hve.group.p, hve.group.q),
    )


@dataclass
class _CachedEvaluation:
    """The reusable artefacts of one batch sequence: plan, evaluator, program.

    Keyed by the *identity* of the batch objects: a session re-evaluating the
    same standing :class:`~repro.protocol.messages.TokenBatch` objects reuses
    the plan (and its compiled program and packed worklist) call after call.
    """

    batches: tuple[TokenBatch, ...]
    evaluator: Evaluator
    plan: Optional[TokenPlan]
    #: Compiled once per plan when the engine's ``fused`` option is on.
    fused_program: Optional[FusedProgram] = None
    #: Lazily-built resident packed worklist for the fused path
    #: (:class:`~repro.crypto.backends.base.FusedWorklist`); lives with the
    #: plan so its packed columns survive across passes and are patched in
    #: place as the candidate population drifts.
    fused_worklist: Optional[Any] = field(default=None, repr=False)

    def matches(self, batches: Sequence[TokenBatch]) -> bool:
        return len(self.batches) == len(batches) and all(
            cached is batch for cached, batch in zip(self.batches, batches)
        )


class MatchingEngine:
    """The single matching path of the service provider.

    Every pass runs on the calling thread: the whole outstanding worklist is
    one fused backend call (through the plan's resident packed worklist from
    ``fused_pack_min_jobs`` candidates up), or the scalar evaluator when the
    ``fused`` option is off or the strategy is ``"naive"``.

    Parameters
    ----------
    hve:
        The HVE instance shared with the rest of the deployment (the engine
        only ever calls query/match operations -- it never sees key material).
    options:
        Strategy and evaluation tunables; defaults to the planned strategy,
        cheapest-first order, deduplication and subsumption on and fused
        evaluation.
    """

    def __init__(self, hve: HVE, options: Optional[MatchingOptions] = None):
        self.hve = hve
        self.options = options if options is not None else MatchingOptions()
        # alert_id -> (token signature, user_id -> (sequence_number, matched)).
        # The signature is the alert's ordered pattern tuple: a standing alert
        # re-declared with a different token set must not serve outcomes
        # computed for the old zone, so a signature change drops its state.
        self._alert_state: dict[str, tuple[tuple[str, ...], dict[str, tuple[int, bool]]]] = {}
        # Most-recent-first; more than one entry so an interleaved one-shot
        # alert does not evict a standing set's plan (see _evaluation_for).
        self._cache_entries: list[_CachedEvaluation] = []
        #: Evaluations that rebuilt the plan / reused the cached one -- the
        #: session metrics observers report these per request.
        self.plan_builds = 0
        self.plan_reuses = 0
        #: Work accounting of the most recent pass (see :class:`PassStats`).
        self.last_pass = PassStats()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, batches: Sequence[TokenBatch]) -> TokenPlan:
        """Build the :class:`TokenPlan` this engine would evaluate for ``batches``."""
        return TokenPlan(
            batches,
            order=self.options.order,
            dedupe=self.options.dedupe,
            subsume=self.options.subsume,
        )

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(
        self,
        batches: Sequence[TokenBatch],
        candidates: Iterable[MatchCandidate],
        descriptions: Optional[Mapping[str, str]] = None,
    ) -> list[Notification]:
        """Match every alert batch against every candidate ciphertext.

        Semantics are identical across strategies and evaluation paths: per
        candidate, alerts are evaluated in declaration order and each alert
        short-circuits on its first matching token; a user can be notified
        for several distinct alerts but only once per alert.  Notifications
        come back in (candidate, alert) order.

        Only the (candidate, alert) entries without a remembered outcome for
        the candidate's sequence number are evaluated and charged pairings;
        the rest are answered from the engine's state.
        """
        batches = list(batches)
        candidates = list(candidates)
        stats = self.last_pass = PassStats(
            candidates=len(candidates), zones_evaluated=len(batches)
        )
        if not batches or not candidates:
            stats.zones_evaluated = 0
            return []
        evaluation = self._evaluation_for(batches)
        outcome_maps = self._outcome_maps(batches)
        keys = [(candidate.user_id, candidate.sequence_number) for candidate in candidates]
        stale: dict[int, list[int]] = {}
        for index, outcomes in enumerate(outcome_maps):
            get = outcomes.get
            for j, (user_id, sequence_number) in enumerate(keys):
                if get(user_id, _UNSEEN)[0] != sequence_number:
                    stale.setdefault(j, []).append(index)
        if stale:
            self._evaluate_stale(evaluation, candidates, keys, stale, outcome_maps)
        descriptions = descriptions or {}
        alerts = [
            (batch.alert_id, descriptions.get(batch.alert_id, ""), outcomes)
            for batch, outcomes in zip(batches, outcome_maps)
        ]
        return [
            Notification(user_id=user_id, alert_id=alert_id, description=description)
            for user_id, _ in keys
            for alert_id, description, outcomes in alerts
            if outcomes[user_id][1]
        ]

    def match_store(
        self,
        batches: Sequence[TokenBatch],
        store,
        now: float,
        descriptions: Optional[Mapping[str, str]] = None,
    ) -> list[Notification]:
        """Match alert batches against the fresh reports of a ciphertext store."""
        return self.match(batches, store.fresh_candidates(now), descriptions=descriptions)

    # ------------------------------------------------------------------
    # Remembered outcomes
    # ------------------------------------------------------------------
    def standing_alerts(self) -> list[str]:
        """Alert ids with remembered outcomes."""
        return sorted(self._alert_state)

    def forget_alert(self, alert_id: str) -> None:
        """Drop the remembered outcomes of one alert (no-op if absent)."""
        self._alert_state.pop(alert_id, None)

    def forget_users(self, user_ids: Iterable[str]) -> None:
        """Drop every remembered outcome of ``user_ids`` (e.g. expired reports).

        A pseudonym that later reports again, even from sequence number 0,
        is then evaluated afresh instead of answered from its old ciphertext.
        """
        user_ids = list(user_ids)
        for _, outcomes in self._alert_state.values():
            for user_id in user_ids:
                outcomes.pop(user_id, None)

    def reset_state(self) -> None:
        """Drop all remembered outcomes."""
        self._alert_state.clear()

    def export_state(self) -> dict[str, Any]:
        """JSON-compatible snapshot of the remembered outcomes.

        Captures, per standing alert, the token-pattern signature and every
        remembered (user, sequence number, outcome) triple.  Persist it next
        to the ciphertext store (see
        :meth:`repro.protocol.store.CiphertextStore.save`) so a provider
        restart does not force a full re-evaluation of standing alerts.
        """
        return {
            "kind": "matching_engine_state",
            "alerts": {
                alert_id: {
                    "signature": list(signature),
                    "outcomes": {
                        user_id: [sequence_number, matched]
                        for user_id, (sequence_number, matched) in sorted(outcomes.items())
                    },
                }
                for alert_id, (signature, outcomes) in self._alert_state.items()
            },
        }

    def import_state(self, payload: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`export_state` (replaces state)."""
        if payload.get("kind") != "matching_engine_state":
            raise ValueError("payload is not a serialized matching-engine state")
        state: dict[str, tuple[tuple[str, ...], dict[str, tuple[int, bool]]]] = {}
        for alert_id, entry in payload.get("alerts", {}).items():
            signature = tuple(entry.get("signature", ()))
            outcomes = {
                user_id: (int(sequence_number), bool(matched))
                for user_id, (sequence_number, matched) in entry.get("outcomes", {}).items()
            }
            state[alert_id] = (signature, outcomes)
        self._alert_state = state

    # ------------------------------------------------------------------
    # Evaluation internals
    # ------------------------------------------------------------------
    #: How many distinct batch tuples keep their plans cached at once.  One
    #: standing set plus a few interleaved one-shot / ad-hoc evaluations fit
    #: comfortably; entries are tiny (the tokens are alive anyway).
    _PLAN_CACHE_SIZE = 4

    def _evaluation_for(self, batches: Sequence[TokenBatch]) -> _CachedEvaluation:
        """The (possibly cached) evaluation artefacts for ``batches``.

        The cache is keyed by batch-object identity: a standing set of alerts
        re-evaluated with the same :class:`TokenBatch` objects skips plan
        construction and program compilation entirely, which is what lets a
        long-lived session amortise planning across high-frequency calls.
        A small LRU of recent batch tuples is kept so a one-shot alert
        evaluated between standing ticks does not evict the standing plan.
        """
        for index, entry in enumerate(self._cache_entries):
            if entry.matches(batches):
                if index:
                    self._cache_entries.insert(0, self._cache_entries.pop(index))
                self.plan_reuses += 1
                return entry
        self.plan_builds += 1
        if self.options.strategy == "planned":
            plan: Optional[TokenPlan] = self.plan(batches)
            evaluator = _make_planned_evaluator(self.hve, plan)
            fused_program = _compile_fused_program(self.hve, plan) if self.options.fused else None
        else:
            plan = None
            fused_program = None
            evaluator = _make_naive_evaluator(self.hve, [list(batch.tokens) for batch in batches])
        cached = _CachedEvaluation(
            batches=tuple(batches),
            evaluator=evaluator,
            plan=plan,
            fused_program=fused_program,
        )
        self._cache_entries.insert(0, cached)
        del self._cache_entries[self._PLAN_CACHE_SIZE :]
        return cached

    def _outcome_maps(self, batches: Sequence[TokenBatch]) -> list[dict[str, tuple[int, bool]]]:
        """Per batch, the alert's remembered ``user_id -> (sequence, matched)``.

        A new alert starts empty; an alert re-declared with a different token
        set drops the outcomes computed for its old zone.
        """
        maps = []
        for batch in batches:
            signature = tuple(token.pattern for token in batch.tokens)
            state = self._alert_state.get(batch.alert_id)
            if state is None or state[0] != signature:
                state = self._alert_state[batch.alert_id] = (signature, {})
            maps.append(state[1])
        return maps

    def _evaluate_stale(
        self,
        evaluation: _CachedEvaluation,
        candidates: Sequence[MatchCandidate],
        keys: Sequence[tuple[str, int]],
        stale: Mapping[int, Sequence[int]],
        outcome_maps: Sequence[dict[str, tuple[int, bool]]],
    ) -> None:
        """Evaluate candidate ``j`` against the batch indices ``stale[j]`` and
        remember the outcomes under the candidate's sequence number.

        With a fused program the whole population is one backend call (a
        candidate with nothing stale needs nothing and costs nothing), no
        per-token Python dispatch at all.  From ``fused_pack_min_jobs``
        candidates up, the call runs through the plan's resident
        :class:`~repro.crypto.backends.base.FusedWorklist`, keyed by
        ``(user_id, sequence_number)`` so repeat passes reuse the packed
        columns and movers are patched in place.
        """
        group = self.hve.group
        hits_before = group.precomp_hits
        program = evaluation.fused_program
        order = list(stale)
        if program is not None:
            worklist = None
            if len(candidates) >= self.options.fused_pack_min_jobs:
                worklist = evaluation.fused_worklist
                if worklist is None:
                    worklist = evaluation.fused_worklist = group.backend.make_fused_worklist(program)
            jobs = [
                candidate.ciphertext._exponent_rows + (tuple(stale.get(j, ())),)
                for j, candidate in enumerate(candidates)
            ]
            rows, _ = group.fused_eval(program, jobs, worklist=worklist, keys=keys)
            evaluated = [rows[j] for j in order]
            self.last_pass.fused_evals += 1
        else:
            evaluate = evaluation.evaluator
            evaluated = []
            for j in order:
                shared: dict[int, bool] = {}
                ciphertext = candidates[j].ciphertext
                evaluated.append([evaluate(ciphertext, index, shared) for index in stale[j]])
        self.last_pass.precomp_hits += group.precomp_hits - hits_before
        for j, row in zip(order, evaluated):
            user_id, sequence_number = keys[j]
            for index, outcome in zip(stale[j], row):
                outcome_maps[index][user_id] = (sequence_number, outcome)
