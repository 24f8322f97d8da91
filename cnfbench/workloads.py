"""The benchmark's workloads: what each pipeline round generates and augments.

A run with ``--seed n`` executes rounds ``k = 0, 1, ...``; round ``k`` passes
``--seed n * 1000 + k`` to ``cnfaug gen`` (see :func:`corpus_seed`).  The
chain seeds inside the view chains are part of the workload definition and
never change.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    gen_args: tuple[str, ...]   # ``cnfaug gen`` flags besides --count/--seed/--out
    count: int                  # ``gen --count``: SR pairs or UR instances per round
    views: tuple[str, str]      # the chains of view 1 and view 2
    label_preserving: bool      # both chains are LPAs: verify --strict, no flips allowed

    @property
    def flags(self) -> dict[str, str]:
        return dict(zip(self.gen_args[::2], self.gen_args[1::2]))

    @property
    def sr(self) -> bool:
        return self.flags["--family"] == "sr"

    @property
    def instances(self) -> int:
        return 2 * self.count if self.sr else self.count


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sr10-lpa",
            ("--family", "sr", "--vars", "10"),
            count=40,
            views=("CR:0.2:11,SC", "AU:0.2:12,CR:0.1:13,SC"),
            label_preserving=True,
        ),
        # VE at SR(12), not SR(40): one SR(40) pair costs ~0.9 s and its augment
        # time varies with a CV of 0.73 from pair to pair, so the ~30 pairs of a
        # 30 s run spread augment_views_per_s by 0.39 (IQR/median) over five
        # seeds.  SR(12) pairs cost ~0.16 s; a 40 s run averages over 240-350.
        Workload(
            "sr12-ve",
            ("--family", "sr", "--vars", "12"),
            count=12,
            views=("VE:0.3:21,SC", "VE:0.1:22,CR:0.2:23,SC"),
            label_preserving=True,
        ),
        Workload(
            "ur12-laa",
            ("--family", "ur", "--vars", "12", "--clauses", "51", "--k", "3"),
            count=160,
            views=("DC:0.2:31", "SG:0.6:32,LP:0.1:33"),
            label_preserving=False,
        ),
    )
}

# Pairs per NT-Xent batch in the loss step (rows 2k and 2k+1 are one instance).
LOSS_BATCH_PAIRS = 16

STAGES = ("gen", "augment", "verify", "export", "stats", "loss")

LAA_KINDS = {"DC", "DV", "LP", "SG"}


def chain_kinds(chain: str) -> set[str]:
    """The augmentation kinds named in a chain string such as ``CR:0.2:11,SC``."""
    return {step.split(":")[0] for step in chain.split(",")}


def corpus_seed(seed: int, round_index: int) -> int:
    """The ``gen --seed`` of one round; distinct for up to 1000 rounds a run."""
    return seed * 1000 + round_index
