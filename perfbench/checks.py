"""Answers computed apart from covertt, and validators for covertt's outputs.

Nothing here imports covertt.  The least cover is computed by counter-based
forward chaining, a different algorithm from the program's Kleene iteration.
Derivations are checked structurally, whatever tree the program chose.
Each validator returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import os


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def least_cover_masks(n: int, covers, v: int) -> int:
    """Least subset containing ``v`` and closed under the axioms.

    ``covers[a]`` holds one premise mask per axiom of atom ``a``.  Each
    axiom counts its premises not yet inside; an atom enters when one of its
    axioms reaches zero.
    """
    remaining = []
    head = []
    users = [[] for _ in range(n)]
    for a in range(n):
        for m in covers[a]:
            k = len(remaining)
            prem = bits(m)
            remaining.append(len(prem))
            head.append(a)
            for b in prem:
                users[b].append(k)
    inside = [False] * n
    queue = []

    def enter(a):
        if not inside[a]:
            inside[a] = True
            queue.append(a)

    for a in bits(v):
        enter(a)
    for k, count in enumerate(remaining):
        if count == 0:
            enter(head[k])
    while queue:
        b = queue.pop()
        for k in users[b]:
            remaining[k] -= 1
            if remaining[k] == 0:
                enter(head[k])
    return sum(1 << a for a in range(n) if inside[a])


def canonical_tr_nodes(n: int, covers, v: int, atom: int) -> int:
    """Tr nodes of the derivation that replays the inductive rounds, taking
    for each atom its first axiom whose premises entered in an earlier round.
    Used only to sort roundtrip items into cost classes."""
    rank = {a: 0 for a in bits(v)}
    inside = v
    r = 0
    while True:
        r += 1
        new = [
            a for a in range(n)
            if not inside >> a & 1 and any(m & ~inside == 0 for m in covers[a])
        ]
        if not new:
            break
        for a in new:
            rank[a] = r
        inside |= sum(1 << a for a in new)

    def count(a):
        if rank[a] == 0:
            return 0
        for m in covers[a]:
            if all(rank.get(b, r) < rank[a] for b in bits(m)):
                return 1 + sum(count(b) for b in bits(m))
        raise AssertionError("rounds lost an axiom")

    return count(atom)


# --- derivations -----------------------------------------------------------------
#
# A derivation here is ("rf", atom) or ("tr", atom, label index, children).


def derivation_problems(covers, v: int, atom: int, node) -> list[str]:
    """``rf`` only on members of V; each ``tr a i`` has one child per premise
    of axiom i of a, in premise order; the root derives ``atom``."""
    problems = []
    stack = [(atom, node)]
    while stack:
        want, nd = stack.pop()
        if nd[1] != want:
            problems.append(f"node for atom {nd[1]} where {want} was expected")
            continue
        if nd[0] == "rf":
            if not v >> want & 1:
                problems.append(f"rf on atom {want}, which is not in V")
            continue
        _, a, i, children = nd
        if not 0 <= i < len(covers[a]):
            problems.append(f"tr {a} {i}: no such axiom")
            continue
        premises = bits(covers[a][i])
        if len(children) != len(premises):
            problems.append(f"tr {a} {i}: {len(children)} children for {len(premises)} premises")
            continue
        stack.extend(zip(premises, children))
    return problems


def proof_problems(covers, v: int, atom: int, covered: bool, d, tm=None, back=None) -> list[str]:
    """One roundtrip item: the verdict agrees with the benchmark's fixpoint;
    a covered atom's derivation is valid and its proof term survives
    ``parse_term(pretty(tm))`` unchanged (``back``)."""
    if (d is not None) != covered:
        return [
            f"atom {atom}: derivation {'given' if d is not None else 'missing'}, "
            f"benchmark's fixpoint says {'covered' if covered else 'uncovered'}"
        ]
    if d is None:
        return []
    problems = derivation_problems(covers, v, atom, from_program_derivation(d))
    if back != tm:
        problems.append(f"proof of atom {atom} does not round-trip through pretty/parse")
    return problems


def from_program_derivation(d):
    """Convert covertt's RfNode/TrNode tree without recursion."""
    out = {}
    stack = [(d, False)]
    while stack:
        nd, done = stack.pop()
        if hasattr(nd, "children"):
            if not done:
                stack.append((nd, True))
                stack.extend((c, False) for c in nd.children)
                continue
            out[id(nd)] = ("tr", nd.atom, nd.label, [out[id(c)] for c in nd.children])
        else:
            out[id(nd)] = ("rf", nd.atom)
    return out[id(d)]


def parse_derivation_lines(lines, index, label_index):
    """Rebuild a rendered derivation (``  rf a`` / ``  tr a i``, two spaces
    per level, children after their parent) into the tuple form."""
    root = None
    stack = []  # (indent, children list)
    for line in lines:
        stripped = line.lstrip(" ")
        indent = (len(line) - len(stripped)) // 2
        parts = stripped.split()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if parts[0] == "rf" and len(parts) == 2:
            nd = ("rf", index[parts[1]])
        elif parts[0] == "tr" and len(parts) == 3:
            a = index[parts[1]]
            nd = ("tr", a, label_index[a].get(parts[2], -1), [])
        else:
            raise ValueError(f"unreadable derivation line {line!r}")
        if stack:
            stack[-1][1][3].append(nd)
        elif root is None:
            root = nd
        else:
            raise ValueError("two roots in one derivation")
        if nd[0] == "tr":
            stack.append((indent, nd))
    if root is None:
        raise ValueError("empty derivation")
    return root


def cover_report_problems(ax, lines) -> list[str]:
    """Check a ``run_queries`` report against the benchmark's own fixpoint.

    ``ax`` is an ``inputs.AxiomText``.  One verdict line per query, in
    order; each covered verdict is followed by a valid derivation and an
    uncovered one by none.
    """
    index = {a: i for i, a in enumerate(ax.carrier)}
    label_index = [{lb: i for i, lb in enumerate(ls)} for ls in ax.labels]
    closures = {}
    problems = []
    pos = 0
    for atom, name in ax.queries:
        v = ax.subsets[name]
        if name not in closures:
            closures[name] = least_cover_masks(len(ax.carrier), ax.covers, v)
        covered = bool(closures[name] >> index[atom] & 1)
        want = f"{atom} {name} {'covered' if covered else 'uncovered'}"
        if pos >= len(lines) or lines[pos] != want:
            got = lines[pos] if pos < len(lines) else "<end of report>"
            problems.append(f"expected {want!r}, got {got!r}")
            return problems
        pos += 1
        start = pos
        while pos < len(lines) and lines[pos].startswith(" "):
            pos += 1
        body = lines[start:pos]
        if not covered:
            if body:
                problems.append(f"{want}: unexpected derivation")
            continue
        try:
            tree = parse_derivation_lines(body, index, label_index)
        except (ValueError, KeyError, IndexError) as e:
            problems.append(f"{want}: {e}")
            continue
        problems += [f"{want}: {p}" for p in derivation_problems(ax.covers, v, index[atom], tree)]
    if pos != len(lines):
        problems.append(f"{len(lines) - pos} lines after the last query")
    return problems


# --- corpus --------------------------------------------------------------------------


def read_manifest(corpus_dir: str):
    """(tag, file, required flag names) per manifest line."""
    entries = []
    with open(os.path.join(corpus_dir, "manifest"), encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                entries.append((parts[0], parts[1], frozenset(parts[2:])))
    return entries


def corpus_problems(manifest, flag_names, results) -> list[str]:
    """An entry passes exactly when its flags are included in ``flag_names``
    and is skipped otherwise; ``results`` are (tag, file, status) triples."""
    want = [
        (tag, file, "pass" if required <= set(flag_names) else "skip")
        for tag, file, required in manifest
    ]
    got = list(results)
    if len(got) != len(want):
        return [f"{len(got)} results for {len(want)} manifest entries"]
    return [f"{w[0]}: expected {w[2]}, got {g[2]}" for w, g in zip(want, got) if w != g]


# --- cli -----------------------------------------------------------------------------


def cli_problems(kind: str, returncode: int, stdout: str, ax=None) -> list[str]:
    """Exit status 0 and no ``error`` line; ``check`` prints only ``ok``
    lines, ``norm`` prints ``star``, ``cover`` agrees with the fixpoint."""
    lines = stdout.splitlines()
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if any(line.startswith("error") for line in lines):
        problems.append("an error line was printed")
    if kind == "check" and (not lines or not all(line.startswith("ok ") for line in lines)):
        problems.append("check printed something other than ok lines")
    elif kind == "norm" and stdout.strip() != "star":
        problems.append(f"norm printed {stdout.strip()[:60]!r}, not star")
    elif kind == "cover":
        problems += cover_report_problems(ax, lines)
    return problems
