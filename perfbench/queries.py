"""The query-mix workload: a fixed universe of small CLI queries and a
seeded stream over it.

The universe is finite so that every query the stream can produce has
an answer recorded in ``golden/queries.json``. The seed only chooses the
order in which each kind's parameters are visited, which parameters meet
which precision, and the order of the queries inside a round.

A round has a fixed composition: for each precision in ``PRECS`` one
``eis``, one ``delta``, four ``hecke``, one ``eigen`` and three
``bracket`` queries, plus four ``decompose`` queries (which choose their
own precision). Fixing the composition keeps the work per round close
to constant across seeds, so the round time and the latency quantiles
reflect the engine and not the luck of the draw. Each kind's parameters
are dealt from a shuffled deck without replacement, reshuffled when the
deck runs out, for the same reason.
"""

from __future__ import annotations

import random
import shlex
from typing import Iterator

PRECS = (120, 160, 200, 240)

CATALOG = (
    "E2", "E4", "E6", "E8", "E10", "E14",
    "Delta12", "Delta16", "Delta18", "Delta20", "Delta22", "Delta26",
)
MODULAR = CATALOG[1:]

# Weight-homogeneous polynomials in E2, E4, E6: (text, weight, E2-degree).
# Depth-0 polynomials in weights with dim M_k = 1 are eigenforms; the
# rest are not, so the eigen queries mix early misses with full hits.
POLY_POOL = (
    ("E4^2", 8, 0),
    ("3*E4*E6", 10, 0),
    ("E4^3 - E6^2", 12, 0),
    ("E4^3 + 2*E6^2", 12, 0),
    ("(E4^4 - E4*E6^2)/3", 16, 0),
    ("E4^3*E6 - 5*E6^3/7", 18, 0),
    ("E2*E4", 6, 1),
    ("E2*E4 - E6", 6, 1),
    ("E2*E6 - E4^2", 8, 1),
    ("E2*E4^2 - 3*E4*E6", 10, 1),
    ("E2*E4^3 - E2*E6^2", 14, 1),
    ("(E2^2 - E4)/12", 4, 2),
    ("E2^2*E4 - 2*E2*E6 + E4^2", 8, 2),
    ("E2^2*E6 + E4*E6/2 - E2*E4^2", 10, 2),
    ("E2^3 - 3*E2*E4 + 2*E6", 6, 3),
    ("E2^4 - E4^2", 8, 4),
)

INPUTS = CATALOG + tuple(text for text, _, _ in POLY_POOL)

# Per precision: how many queries of each kind a round holds.
SLOTS_PER_PREC = (("eis", 1), ("delta", 1), ("hecke", 4), ("eigen", 1), ("bracket", 3))
DECOMPOSE_PER_ROUND = 4


def _params() -> dict[str, list[list[str]]]:
    """Precision-free argument lists for each query kind."""
    bracket_pairs = [
        (g, h) for i, g in enumerate(MODULAR) for h in MODULAR[i:]
    ]
    return {
        "eis": [["eis", "--weight", str(k)] for k in range(2, 17, 2)],
        "delta": [["delta", "--weight", str(k)] for k in (12, 16, 18, 20, 22, 26)],
        "hecke": [
            ["hecke", "--input", text, "--n", str(n)]
            for text in INPUTS
            for n in range(1, 11)
        ],
        "eigen": [["eigen", "--input", text] for text in INPUTS],
        "bracket": [
            ["bracket", "--g", g, "--h", h, "--m", str(m)]
            for g, h in bracket_pairs
            for m in range(5)
        ],
        # A depth bound from the E2-degree up to one above it, kept below
        # weight/2 where the decomposition is defined.
        "decompose": [
            ["decompose", "--expr", text, "--weight", str(w), "--depth", str(d)]
            for text, w, depth in POLY_POOL
            for d in (depth, depth + 1)
            if 2 * d < w
        ],
    }


PARAMS = _params()


def _with_prec(params: list[str], prec: int | None) -> list[str]:
    tail = [] if prec is None else ["--prec", str(prec)]
    return params + tail + ["--json"]


def key(args: list[str]) -> str:
    """The golden-table key of one query."""
    return shlex.join(args)


def universe() -> list[list[str]]:
    """Every query the stream can produce."""
    out = [_with_prec(p, None) for p in PARAMS["decompose"]]
    for kind, _ in SLOTS_PER_PREC:
        out.extend(_with_prec(p, prec) for p in PARAMS[kind] for prec in PRECS)
    return out


class _Deck:
    """Deals one kind's parameters without replacement, reshuffling when empty."""

    def __init__(self, rng: random.Random, items: list[list[str]]):
        self._rng = rng
        self._items = items
        self._left: list[list[str]] = []

    def deal(self) -> list[str]:
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


def rounds(seed: int) -> Iterator[list[list[str]]]:
    """The endless seeded stream, one round (a list of argv lists) at a time."""
    rng = random.Random(seed)
    decks = {kind: _Deck(rng, items) for kind, items in PARAMS.items()}
    while True:
        batch = [
            _with_prec(decks[kind].deal(), prec)
            for prec in PRECS
            for kind, count in SLOTS_PER_PREC
            for _ in range(count)
        ]
        batch.extend(
            _with_prec(decks["decompose"].deal(), None)
            for _ in range(DECOMPOSE_PER_ROUND)
        )
        rng.shuffle(batch)
        yield batch
