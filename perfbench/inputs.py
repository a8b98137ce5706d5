"""Input generators for the benchmark.

Every generator draws from a ``random.Random`` made from ``--seed`` and
returns plain data (masks, tuples, texts).  None of them calls covertt, so
the inputs do not change when the program does.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from checks import canonical_tr_nodes, least_cover_masks


# --- roundtrip: the criterion-6 generator, stratified ---------------------------


def random_axiom_set(rng: random.Random, n: int):
    """One instance as drawn by the criterion-6 acceptance test.

    Returns (labels, covers): per atom a tuple of labels, and per atom a
    tuple of premise masks, one per label.
    """
    labels, covers = [], []
    for _ in range(n):
        m = rng.randint(0, 3)
        labels.append(tuple(f"i{j}" for j in range(m)))
        covers.append(tuple(rng.randrange(1 << n) for _ in range(m)))
    return tuple(labels), tuple(covers)


def _roundtrip_quota():
    """Proofs per round for each class (atoms, tr nodes, labels in total).

    A proof's cost follows its class closely: the certificate inlines the
    whole instance at every ``tr`` node, so its size grows with the atom
    count, the tr-node count and the number of labels.  Drawn freely, 100
    instances cost 1.6x more on one seed than on another; with fixed quotas
    the seed only picks which instances fill each class.  Latency grows in
    the order: rf proofs by atom count, tr proofs over 2 atoms, one tr node
    over 3 atoms, then two over 3 and one over 4.  The 40 rf proofs over 4
    atoms hold the median and the 16 one-tr proofs over 3 atoms (only two
    label counts) the 90th percentile, so neither falls on a boundary
    between classes.
    """
    quota = {}
    for n, tr, labels, count in (
        (2, 0, (1, 2, 3, 4, 5, 6), 2),
        (3, 0, (2, 3, 4, 5, 6, 7), 2),
        (4, 0, (4, 5, 6, 7, 8), 8),
        (2, 1, (2, 3, 4, 5), 2),
        (2, 2, (3, 4, 5), 2),
        (3, 1, (5, 6), 8),
        (3, 2, (6,), 2),
        (4, 1, (5, 6, 7, 8), 1),
    ):
        for total in labels:
            quota[(n, tr, total)] = count
    return quota


ROUNDTRIP_QUOTA = _roundtrip_quota()
UNCOVERED_PER_ROUND = 12
MAX_INSTANCES = 100_000


def roundtrip_items(seed: int):
    """Fill the class quotas from the criterion-6 instance stream.

    Each item is (atoms, labels, covers, v_mask, atom, covered).  Covered
    items are proofs to extract and check; uncovered ones are verdicts only.
    Classes outside the quota are not used: their atoms are rare, or each
    would cost a large share of a round (two or more tr nodes over four
    atoms).
    """
    rng = random.Random(seed)
    left = dict(ROUNDTRIP_QUOTA)
    uncovered_left = UNCOVERED_PER_ROUND
    items = []
    for _ in range(MAX_INSTANCES):
        if not any(left.values()) and not uncovered_left:
            return items
        n = rng.choice([2, 3, 4])
        labels, covers = random_axiom_set(rng, n)
        v = rng.randrange(1 << n)
        closure = least_cover_masks(n, covers, v)
        total = sum(len(ls) for ls in labels)
        for atom in range(n):
            if not closure >> atom & 1:
                if uncovered_left:
                    uncovered_left -= 1
                    items.append((n, labels, covers, v, atom, False))
                continue
            key = (n, canonical_tr_nodes(n, covers, v, atom), total)
            if left.get(key):
                left[key] -= 1
                items.append((n, labels, covers, v, atom, True))
    raise ValueError(f"quotas not filled within {MAX_INSTANCES} instances")


# --- cover_scale: long chains and layered sparse Horn sets -----------------------


def chain_text(rng: random.Random, n: int) -> str:
    """An n-atom chain ``c0 <- c1 <- ... <- c(n-1)`` in shuffled carrier order.

    Queries: the head and the middle against ``top`` (covered, with
    derivations n and n/2 deep), the head and the tail against the empty
    subset ``none`` (uncovered).
    """
    names = [f"c{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    lines = ["carrier " + " ".join(order)]
    for i in range(n - 1):
        lines.append(f"axiom c{i} k : c{i + 1}")
    lines.append(f"subset top : c{n - 1}")
    lines.append("subset none :")
    lines += ["query c0 top", f"query c{n // 2} top", "query c0 none", f"query c{n - 1} none"]
    return "\n".join(lines) + "\n"


def layered_horn_text(rng: random.Random, width: int, depth: int, queries: int) -> str:
    """A sparse Horn set of ``width * depth`` atoms in ``depth`` layers.

    A random half of each layer is planned to be covered; the planned half
    of the bottom layer is the subset ``base``.  A planned atom above the
    bottom has one axiom whose two premises are planned atoms of the next
    layer down, and up to one decoy axiom; every other atom has up to two
    decoys.  A decoy has two premises in the next layer, at least one of
    them unplanned, so it never fires.  Hence the least cover takes
    ``depth`` rounds and every covered top-layer atom has a derivation of
    exactly ``2 ** depth - 1`` nodes.  Queries ask ``queries`` covered and
    ``queries`` uncovered top-layer atoms.
    """
    layers = [[f"h{k}_{j}" for j in range(width)] for k in range(depth)]
    planned = [set(rng.sample(layer, width // 2)) for layer in layers]
    order = [a for layer in layers for a in layer]
    rng.shuffle(order)
    lines = ["carrier " + " ".join(order)]
    for k in range(depth - 1):
        below = layers[k + 1]
        good = sorted(planned[k + 1])
        bad = [a for a in below if a not in planned[k + 1]]
        for a in layers[k]:
            axioms = []
            for _ in range(rng.randint(0, 1) if a in planned[k] else rng.randint(0, 2)):
                b = rng.choice(bad)
                c = rng.choice([x for x in rng.sample(below, 2) if x != b])
                axioms.append(rng.sample([b, c], 2))
            if a in planned[k]:
                axioms.insert(rng.randint(0, len(axioms)), rng.sample(good, 2))
            for i, prem in enumerate(axioms):
                lines.append(f"axiom {a} r{i} : {' '.join(prem)}")
    lines.append("subset base : " + " ".join(sorted(planned[-1])))
    top = layers[0][:]
    rng.shuffle(top)
    chosen = [a for a in top if a in planned[0]][:queries] + [a for a in top if a not in planned[0]][:queries]
    lines += [f"query {a} base" for a in chosen]
    return "\n".join(lines) + "\n"


def cover_scale_files(seed: int):
    """Three 600-atom chains and seven 1,500-atom layered Horn sets.

    A chain costs about twice a Horn set, so the median file is a Horn set
    and the 90th percentile lies inside the chains."""
    rng = random.Random(seed)
    files = [(f"chain{i}", chain_text(rng, 600)) for i in range(3)]
    files += [(f"horn{i}", layered_horn_text(rng, 300, 5, 4)) for i in range(7)]
    return files


# --- cli ---------------------------------------------------------------------------


NORM_DEPTHS = (50, 200, 400)


def nested_identity(depth: int) -> str:
    """``(fun x => x : N1 -> N1) (...)`` nested ``depth`` times around ``star``;
    its normal form is ``star`` and checking it takes depth*(depth+1)/2 steps."""
    return "(fun x => x : N1 -> N1) (" * depth + "star" + ")" * depth


class AxiomText(NamedTuple):
    """An axiom-set file read by the benchmark's own parser."""

    carrier: tuple
    labels: tuple  # per atom, its axiom labels
    covers: tuple  # per atom, one premise mask per label
    subsets: dict  # name -> mask
    queries: list  # (atom, subset name)


def parse_axiom_text(text: str) -> AxiomText:
    """Read the generated format (no comments, no errors to report)."""
    carrier, labels, covers, subsets, queries = None, [], [], {}, []
    index = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "carrier":
            carrier = tuple(parts[1:])
            index = {a: i for i, a in enumerate(carrier)}
            labels = [[] for _ in carrier]
            covers = [[] for _ in carrier]
        elif parts[0] == "axiom":
            a = index[parts[1]]
            labels[a].append(parts[2])
            covers[a].append(sum(1 << index[b] for b in parts[4:]))
        elif parts[0] == "subset":
            subsets[parts[1]] = sum(1 << index[b] for b in parts[3:])
        elif parts[0] == "query":
            queries.append((parts[1], parts[2]))
    return AxiomText(
        carrier,
        tuple(tuple(ls) for ls in labels),
        tuple(tuple(cs) for cs in covers),
        subsets,
        queries,
    )
