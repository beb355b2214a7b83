"""Answer checks made apart from the engines, using only the stdlib.

Nothing here imports ``spcheck``. A report is accepted only when every
witness world it carries replays against the source rows and satisfies
the constraint under this module's own classical checks, and when every
key measure agrees with this module's own augmenting-path matching.

Tables are lists of row tuples whose cells are strings or ``None``, as
written to the request CSVs. Witness worlds come from the JSON report,
where the reserved symbol of an all-NULL column is the string "ssymb".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

SSYMB = "ssymb"


class CheckError(Exception):
    """A report answer failed an independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Constraints: ("key", cols) | ("fd", lhs, rhs) | ("mvd", lhs, rhs) | ("cj", lhs, rhs)


def _proj(row, cols) -> tuple:
    return tuple(row[a] for a in cols)


def holds(world, constraint, arity: int) -> bool:
    """Classical satisfaction on a complete table (bag semantics)."""
    kind = constraint[0]
    if kind == "key":
        cols = sorted(constraint[1])
        seen = set()
        for r in world:
            p = _proj(r, cols)
            if p in seen:
                return False
            seen.add(p)
        return True
    lhs, rhs = sorted(constraint[1]), sorted(constraint[2])
    if kind == "fd":
        image: dict = {}
        for r in world:
            if image.setdefault(_proj(r, lhs), _proj(r, rhs)) != _proj(r, rhs):
                return False
        return True
    if kind == "mvd":
        rest = sorted(set(range(arity)) - set(lhs) - set(rhs))
        rhs = sorted(set(rhs) - set(lhs))
        groups: dict = {}
        for r in world:
            groups.setdefault(_proj(r, lhs), set()).add((_proj(r, rhs), _proj(r, rest)))
        return all(
            len(pairs) == len({p[0] for p in pairs}) * len({p[1] for p in pairs})
            for pairs in groups.values()
        )
    if kind == "cj":
        pairs = {(_proj(r, lhs), _proj(r, rhs)) for r in world}
        return len(pairs) == len({p[0] for p in pairs}) * len({p[1] for p in pairs})
    raise ValueError(f"unknown constraint kind {kind!r}")


def domains(rows, arity: int) -> list:
    """Active domain per column; the reserved symbol for an all-NULL column."""
    out = []
    for a in range(arity):
        values = {r[a] for r in rows if r[a] is not None}
        out.append(values or {SSYMB})
    return out


def replay(source, world, constraint, arity: int) -> None:
    """``world`` must complete ``source`` row by row from the source's own
    active domains and satisfy ``constraint`` classically."""
    _require(world is not None, "missing witness world")
    _require(len(world) == len(source),
             f"witness has {len(world)} rows, source has {len(source)}")
    doms = domains(source, arity)
    for i, (src, done) in enumerate(zip(source, world)):
        _require(len(done) == arity, f"witness row {i} has {len(done)} cells")
        for a in range(arity):
            if src[a] is None:
                _require(done[a] in doms[a],
                         f"witness row {i} fills column {a} with {done[a]!r}, "
                         "outside the active domain")
            else:
                _require(done[a] == src[a],
                         f"witness row {i} changes column {a} from {src[a]!r} to {done[a]!r}")
    _require(holds([tuple(r) for r in world], constraint, arity),
             "witness world violates the constraint")


# ---------------------------------------------------------------------------
# Key measures by the benchmark's own matching


def _key_options(rows, key, arity: int) -> list:
    doms = [sorted(d) for d in domains(rows, arity)]
    return [[(r[a],) if r[a] is not None else doms[a] for a in key] for r in rows]


def key_matching(rows, key, arity: int) -> tuple[int, dict]:
    """Maximum matching of rows to distinct key completions.

    Returns the matching size and the row -> completion map of the
    materialized rows. A row with more than ``len(rows)`` completions is
    matched by pigeonhole: once the others are placed, one of its
    completions is still free.
    """
    key = sorted(key)
    n = len(rows)
    options = _key_options(rows, key, arity)
    low, high = [], 0
    for i, opts in enumerate(options):
        count = 1
        for o in opts:
            count *= len(o)
        if count > n:
            high += 1
        else:
            low.append(i)
    owner: dict = {}
    match: dict = {}
    for i in low:
        for ext in product(*options[i]):
            if ext not in owner:
                owner[ext] = i
                match[i] = ext
                break
    # Augmenting paths; completions found dead stay dead until the next
    # augmentation changes the matching.
    dead: set = set()
    for i in low:
        if i in match:
            continue
        stack = [(i, product(*options[i]))]
        path: list = []
        while stack:
            row, exts = stack[-1]
            for ext in exts:
                if ext in dead:
                    continue
                dead.add(ext)
                holder = owner.get(ext)
                if holder is None:
                    path.append(ext)
                    for (r, _), e in zip(stack, path):
                        owner[e] = r
                        match[r] = e
                    stack = []
                    dead = set()
                    break
                path.append(ext)
                stack.append((holder, product(*options[holder])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
    return len(match) + high, match


def key_g4(rows, key, arity: int) -> tuple[int, int]:
    """Numerator |T| - nu and denominator |T| + rows in components whose
    rows are all matched."""
    key = sorted(key)
    n = len(rows)
    size, match = key_matching(rows, key, arity)
    options = _key_options(rows, key, arity)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_row: dict = {}
    for i, opts in enumerate(options):
        for ext in product(*opts):
            j = first_row.setdefault(ext, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    members: dict = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    doubled = sum(len(c) for c in members.values() if all(i in match for i in c))
    return n - size, n + doubled


def fresh_rows(rows, arity: int, k: int) -> list:
    """``k`` total rows, each repeating one value new to every column."""
    used = set().union(*domains(rows, arity))
    tokens = (f"fresh{j}" for j in range(1, k + len(used) + 1))
    return [(t,) * arity for t in tokens if t not in used][:k]


def key_total_unique(rows, key) -> bool:
    key = sorted(key)
    seen = set()
    for r in rows:
        p = _proj(r, key)
        if None in p:
            continue
        if p in seen:
            return False
        seen.add(p)
    return True


def fd_total_consistent(rows, lhs, rhs) -> bool:
    x, y = sorted(set(lhs) - set(rhs)), sorted(set(rhs) - set(lhs))
    fixed: dict = {}
    for r in rows:
        xp = _proj(r, x)
        if None in xp:
            continue
        cells = fixed.setdefault(xp, [None] * len(y))
        for pos, a in enumerate(y):
            if r[a] is None:
                continue
            if cells[pos] is None:
                cells[pos] = r[a]
            elif cells[pos] != r[a]:
                return False
    return True


# ---------------------------------------------------------------------------
# Report entries


def _fraction(payload) -> tuple:
    text = payload["fraction"]
    if text == "undefined":
        return None, None
    num, den = text.split("/")
    return int(num), int(den)


def _rows(cells) -> list:
    return [tuple(r) for r in cells]


class Checker:
    """Checks report entries of one table, caching the costly matchings
    so that repeated rounds of the same request pay for them once."""

    def __init__(self, rows, arity: int):
        self.rows = [tuple(r) for r in rows]
        self.arity = arity
        self._nu: dict = {}
        self._g4: dict = {}

    def nu(self, key, extra: int = 0) -> int:
        """Matching size of the table plus ``extra`` fresh key rows."""
        memo = (tuple(sorted(key)), extra)
        if memo not in self._nu:
            rows = self.rows + fresh_rows(self.rows, self.arity, extra)
            self._nu[memo] = key_matching(rows, key, self.arity)[0]
        return self._nu[memo]

    def g4(self, key) -> tuple[int, int]:
        memo = tuple(sorted(key))
        if memo not in self._g4:
            self._g4[memo] = key_g4(self.rows, key, self.arity)
        return self._g4[memo]

    def entry(self, entry, constraint, expected=None) -> None:
        """Checks one constraint entry of a ``check``/``measure``/``verify``
        report. ``expected`` maps measure names to closed-form fractions."""
        n = len(self.rows)
        _require(entry.get("error") is None, f"engine error: {entry.get('error')}")
        kind = constraint[0]
        if entry["holds"]:
            replay(self.rows, _rows(entry["witness_world"]), constraint, self.arity)
        elif kind == "key":
            _require(not key_total_unique(self.rows, constraint[1])
                     or self.nu(constraint[1]) < n,
                     "key reported violated, but every row can be matched")
        for name, payload in entry.get("measures", {}).items():
            if "error" in payload:
                self._undefined(name, constraint, payload["error"])
                continue
            num, den = _fraction(payload)
            _require(payload["count"] == num, f"{name}: count and fraction differ")
            if name == "g3":
                self._g3(payload, constraint, num, den, entry["holds"])
            elif name == "g4":
                want_num, want_den = self.g4(constraint[1])
                _require((num, den) == (want_num, want_den),
                         f"g4 is {num}/{den}, own matching gives {want_num}/{want_den}")
            elif name == "g5":
                self._g5(payload, constraint, num, den)
            if expected and name in expected:
                _require(num is not None and Fraction(num, den) == expected[name],
                         f"{name} is {payload['fraction']}, closed form gives {expected[name]}")
        if "oracle" in entry:
            self._oracle(entry)

    def _undefined(self, name, constraint, message) -> None:
        kind = constraint[0]
        _require(name == "g5", f"{name}: unexpected error {message!r}")
        if kind == "key":
            _require(not key_total_unique(self.rows, constraint[1]),
                     "g5 refused although the key-total part is unique")
        elif kind == "fd":
            _require(not fd_total_consistent(self.rows, constraint[1], constraint[2]),
                     "g5 refused although the left-side-total part is consistent")
        else:
            raise CheckError(f"g5 refused for {kind}: {message!r}")

    def _g3(self, payload, constraint, num, den, holds_flag) -> None:
        n = len(self.rows)
        _require(den == n, f"g3 denominator {den} is not the row count {n}")
        removed = payload["removed_rows"]
        _require(len(removed) == num and len(set(removed)) == num,
                 "g3 removal set does not match its count")
        gone = set(removed)
        kept = [i for i in range(n) if i not in gone]
        _require(payload["witness_origin"] == kept, "g3 witness origin is not the kept rows")
        replay([self.rows[i] for i in kept], _rows(payload["witness_world"]),
               constraint, self.arity)
        _require((num == 0) == bool(holds_flag), "g3 is zero exactly when the constraint holds")
        if constraint[0] == "key" and num:
            nu = self.nu(constraint[1])
            _require(num == n - nu, f"g3 removes {num} rows, own matching leaves {n - nu}")

    def _g5(self, payload, constraint, num, den) -> None:
        n = len(self.rows)
        kind = constraint[0]
        if num is None:
            # Outside keys only the oracle, in verify requests, can confirm
            # that no addition within the engines' pool repairs the table.
            if kind == "key":
                bound = n - self.nu(constraint[1])
                _require(self.nu(constraint[1], bound) < n + bound,
                         "g5 undefined, but fresh rows up to the g3 count repair the key")
            return
        _require(den == n, f"g5 denominator {den} is not the row count {n}")
        added = _rows(payload["added_rows"])
        _require(len(added) == num, "g5 addition set does not match its count")
        used = set().union(*domains(self.rows, self.arity))
        for row in added:
            values = {c for c in row if c is not None}
            _require(not values & used, "an added row reuses an existing value")
            cols = {a for a, c in enumerate(row) if c is not None}
            _require(len(values) <= 1, "an added row carries more than one fresh token")
            if kind == "key":
                _require(cols == set(range(self.arity)), "an added key row is not total")
            elif kind == "fd":
                _require(cols == set(constraint[1]) - set(constraint[2]),
                         "an added dependency row is not fresh on the left side only")
            elif kind == "mvd":
                _require(not cols or cols == set(constraint[1]),
                         "an added mvd row is neither all-NULL nor fresh on the left side")
            else:
                _require(not cols, "an added cross-join row is not all-NULL")
        _require(payload["witness_origin"] == list(range(n)) + [None] * num,
                 "g5 witness origin does not list the source rows then the additions")
        replay(self.rows + added, _rows(payload["witness_world"]), constraint, self.arity)
        if kind == "key" and num:
            _require(self.nu(constraint[1], num - 1) < n + num - 1,
                     f"g5 adds {num} rows, but {num - 1} fresh rows already repair the key")

    @staticmethod
    def _oracle(entry) -> None:
        block = entry["oracle"]
        _require(block.get("checked"), "the oracle did not check this constraint")
        _require(block["agree"], "the oracle disagrees with the engines")
        _require(block["holds"] == entry["holds"], "oracle and engine verdicts differ")
        for name, value in block.items():
            if name in ("g3", "g5"):
                payload = entry["measures"][name]
                engine = "undefined" if "error" in payload else payload["fraction"]
                _require(engine == value, f"{name}: engine {engine}, oracle {value}")
