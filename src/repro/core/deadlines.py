"""The deadline algebra of the three sequential protocols.

All takeover logic in Protocols A, B and C is driven by timeout
functions:

* Protocol A: ``DD(j) = j * (n + 3t)`` - process ``j`` becomes active at
  round ``DD(j)`` if it has not learned the work is done.
* Protocol B: ``PTO``, ``GTO``, ``DDB`` and ``TT`` - deadlines relative
  to the last heard message, refined with go-ahead polling.
* Protocol C: ``D(i, m) = K (n + t - m) 2^{n+t-1-m}`` - deadlines keyed
  on the *reduced view* ``m``, with ``K = 5t + 2 log t`` bounding how
  long any process waits before first hearing from an active process.

The paper notes explicitly (Section 3.1) that any upper bound may be
substituted for its timeout constants without affecting correctness;
we keep the paper's closed forms, generalised to arbitrary ``t`` (group
size ``gs = ceil(sqrt(t))``, subchunk bound ``Wsub = ceil(n/t)``), plus a
small additive ``slack`` that absorbs the discrete-engine cases where
processes enter a protocol up to one round apart (Protocol D's reversion
path).  Larger deadlines only delay takeovers - they never violate
safety - and :func:`repro.analysis.verify.verify_run` checks measured
round counts against the paper's formulas widened by the accumulated
slack (``4 t`` by default).

The identities of Lemma 2.5 (``TT(j,k) + TT(l,j) = TT(l,k)`` and
``TT(j,k) + DDB(l,j) = DDB(l,k)`` for ``g_j < g_l``) hold for the
generalised forms by construction; the property-based tests verify them
exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.groups import SqrtGroups
from repro.errors import ConfigurationError

#: Extra rounds added to every takeover deadline.  Two rounds cover the
#: worst-case skew when a protocol instance is started by processes that
#: decided in adjacent rounds (Protocol D reversion); for standalone runs
#: the slack merely delays takeovers by a constant.
DEFAULT_SLACK = 2


@dataclass(frozen=True)
class ProtocolADeadlines:
    """Deadline function of Protocol A."""

    n: int
    t: int
    slack: int = DEFAULT_SLACK

    @property
    def active_budget(self) -> int:
        """Upper bound on rounds any process spends active.

        Lemma 2.1: at most ``n`` work rounds, ``t`` partial-checkpoint
        rounds and fewer than ``2t`` full-checkpoint rounds.
        """
        return self.n + 3 * self.t + self.slack

    def DD(self, pid: int) -> int:
        """Round at which ``pid`` becomes active if it heard nothing."""
        if pid < 0:
            raise ConfigurationError(f"pid must be non-negative, got {pid}")
        return pid * self.active_budget

    def retirement_bound(self) -> int:
        """Theorem 2.3(c) generalised: all processes retired by this round."""
        return self.t * self.active_budget


@dataclass(frozen=True)
class ProtocolBDeadlines:
    """Deadline functions of Protocol B (Section 2.3).

    ``PTO`` ("process time out"): ``PTO - 1`` bounds the stamp-round gap
    between successive messages a group member hears from an active
    process in its own group.

    ``GTO(i)`` ("group time out"): ``GTO(i) - 1`` bounds the rounds
    before a process in a *later* group hears from some process ``>= i``
    of ``i``'s group, if any of them is active: the remainder of a chunk
    (``gs`` subchunks of work plus their partial checkpoints), the full
    checkpoint sweep across groups, and up to ``gs - pos(i) - 1``
    intra-group takeovers of ``PTO`` rounds each.

    ``DDB(j, i)``: rounds after last hearing from ``i`` at which ``j``
    becomes *preactive*.  ``TT(j, i)``: rounds after which ``j`` is
    guaranteed to have become active (preactive phase plus go-ahead
    polling at ``PTO`` intervals).
    """

    n: int
    t: int
    slack: int = DEFAULT_SLACK

    def __post_init__(self) -> None:
        object.__setattr__(self, "_groups", SqrtGroups(self.t))

    @property
    def groups(self) -> SqrtGroups:
        return self._groups  # type: ignore[attr-defined]

    @property
    def work_per_subchunk(self) -> int:
        return -(-self.n // self.t) if self.t else 0

    @property
    def PTO(self) -> int:
        return self.work_per_subchunk + 2 + self.slack

    def GTO(self, pid: int) -> int:
        gs = self.groups.group_size
        ng = self.groups.num_groups
        pos = self.groups.position_in_group(pid)
        chunk_rounds = gs * (self.work_per_subchunk + 1)
        full_checkpoint_rounds = 2 * (ng + 1)
        takeover_rounds = (gs - pos - 1) * self.PTO
        return chunk_rounds + full_checkpoint_rounds + takeover_rounds + 1 + self.slack

    @property
    def GTO_first(self) -> int:
        """GTO at position 0 - the paper's ``GTO(0)``."""
        gs = self.groups.group_size
        ng = self.groups.num_groups
        chunk_rounds = gs * (self.work_per_subchunk + 1)
        full_checkpoint_rounds = 2 * (ng + 1)
        return chunk_rounds + full_checkpoint_rounds + (gs - 1) * self.PTO + 1 + self.slack

    def DDB(self, j: int, i: int) -> int:
        gj, gi = self.groups.group_of(j), self.groups.group_of(i)
        if gj == gi:
            return self.PTO
        if gj < gi:
            raise ConfigurationError(
                f"DDB is defined for j in a group >= i's (j={j} in g{gj}, i={i} in g{gi})"
            )
        return self.GTO(i) + (gj - gi - 1) * self.GTO_first

    def TT(self, j: int, i: int) -> int:
        gj, gi = self.groups.group_of(j), self.groups.group_of(i)
        pos_j = self.groups.position_in_group(j)
        if gj == gi:
            pos_i = self.groups.position_in_group(i)
            return (pos_j - pos_i) * self.PTO
        return self.DDB(j, i) + pos_j * self.PTO

    def retirement_bound(self) -> int:
        """Theorem 2.8(c) generalised: ``n + 3t + TT(t-1, 0)`` plus the
        active budget consumed before the last takeover."""
        last = self.t - 1
        return self.n + 3 * self.t + self.slack + (self.TT(last, 0) if last > 0 else 0)


@dataclass(frozen=True)
class ProtocolCDeadlines:
    """Deadline function of Protocol C (Section 3.1).

    ``K`` bounds the rounds between a process becoming active and every
    non-retired process having received a message from it: fault
    detection costs at most ``2(t + log t)`` poll rounds plus ``t``
    failure-report rounds, and the first ``t`` reported units of level-0
    work cost at most ``2t`` rounds - the paper's ``K = 5t + 2 log t``.
    With batched level-0 reporting (Corollary 3.9) a full cycle through
    the level-1 group takes ``n + t`` work/report rounds instead of
    ``2t``, giving the paper's ``K = 2n + 3t + 2 log t``.

    ``n`` and ``t`` here are the *real* counts; when ``t`` is padded to a
    power of two for the level structure, reduced views count only real
    faults so ``m`` still ranges over ``0 .. n + t - 1``.
    """

    n: int
    t: int
    batched: bool = False
    slack: int = DEFAULT_SLACK

    @property
    def log_t(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.t))))

    @property
    def K(self) -> int:
        if self.batched:
            return 2 * self.n + 3 * self.t + 2 * self.log_t + self.slack
        return 5 * self.t + 2 * self.log_t + self.slack

    @property
    def max_reduced_view(self) -> int:
        return self.n + self.t - 1

    def D(self, pid: int, m: int) -> int:
        """Rounds process ``pid`` waits after reaching reduced view ``m``."""
        if m < 0 or m > self.max_reduced_view:
            raise ConfigurationError(
                f"reduced view {m} outside 0..{self.max_reduced_view}"
            )
        if m >= 1:
            return self.K * (self.n + self.t - m) * (1 << (self.n + self.t - 1 - m))
        return self.K * (self.t - pid) * (self.n + self.t) * (1 << (self.n + self.t - 1))

    def retirement_bound(self) -> int:
        """Lemma 3.5 / Theorem 3.8(c) shape: ``t K (n+t) 2^{n+t}``."""
        return self.t * self.K * (self.n + self.t) * (1 << (self.n + self.t))
