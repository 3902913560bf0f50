"""Presented *-algebras: free words, rewriting to normal form, graded bases,
local confluence.

Words are tuples of generator names.  A presentation carries an ordered
generator list (the term order used for sorting and pivoting), a star pairing,
and a terminating rewrite system whose overlaps all resolve, checked when it
is built; polynomials normalize at construction so that equality is
structural.
"""

from __future__ import annotations

from .linalg import ONE, add_scaled, vec_scale
from .scalars import QRat, qrat, needs_parens

Word = tuple[str, ...]

EMPTY: Word = ()


class PresentationError(ValueError):
    pass


class TerminationError(PresentationError):
    """A rewrite rule does not decrease the reduction order."""


class Generator:
    __slots__ = ("name", "star", "weight")

    def __init__(self, name: str, star: str, weight: int = 1):
        self.name = name
        self.star = star
        self.weight = weight

    def __repr__(self):
        return f"Generator({self.name!r}, star={self.star!r})"


class RewriteRule:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: dict):
        self.lhs = tuple(lhs)
        self.rhs = {tuple(w): qrat(c) for w, c in rhs.items() if not qrat(c).is_zero}

    def relation(self) -> dict:
        """lhs - rhs as a word -> coefficient dict.  The lhs is a redex, so
        this is not a normal form: extend a linear map over it word by word."""
        rel = {self.lhs: ONE}
        add_scaled(rel, self.rhs, -ONE)
        return rel

    def __repr__(self):
        return f"RewriteRule({self.lhs} -> {self.rhs})"


class Presentation:
    """Generators with involution pairing, a term order and a rewrite system.

    Optional Hopf structure is attached by the structure module as `.hopf`.
    Treated as immutable once built; normal forms are memoized per word and
    per seam (a normal word followed by one letter).
    """

    def __init__(self, name: str, generators, rules=(), reduction_precedence=None):
        self.name = name
        self.generators: list[Generator] = list(generators)
        self._by_name = {}
        for g in self.generators:
            if g.name in self._by_name:
                raise PresentationError(f"duplicate generator {g.name!r}")
            self._by_name[g.name] = g
        for g in self.generators:
            if g.star not in self._by_name:
                raise PresentationError(f"star partner {g.star!r} of {g.name!r} missing")
            if self._by_name[g.star].star != g.name:
                raise PresentationError(f"star pairing is not an involution at {g.name!r}")
        self._prec = {g.name: i for i, g in enumerate(self.generators)}
        if reduction_precedence is None:
            self._red_prec = dict(self._prec)
        else:
            if set(reduction_precedence) != set(self._by_name):
                raise PresentationError("reduction order must list every generator")
            self._red_prec = {n: i for i, n in enumerate(reduction_precedence)}
        self.rules: list[RewriteRule] = [r if isinstance(r, RewriteRule) else RewriteRule(*r)
                                         for r in rules]
        self._max_rule_len = max((len(r.lhs) for r in self.rules), default=0)
        self._nf_cache: dict[Word, dict] = {}
        self._seam: dict[Word, dict] = {}
        self.hopf = None
        self._validate_rules()
        # the left sides, each to its first rule, and their lengths
        self._lhs: dict[Word, RewriteRule] = {}
        for r in self.rules:
            self._lhs.setdefault(r.lhs, r)
        self._lhs_lengths = sorted({len(lhs) for lhs in self._lhs})
        # a normal word's tail of maxlen - 1 letters -> the letters it may take
        self._next_letters: dict[Word, tuple[str, ...]] = {}
        # the q-commutations y x -> c x y, keyed by their left side
        self._swaps: dict[Word, QRat] = {}
        for r in self.rules:
            if len(r.lhs) == 2 and len(r.rhs) == 1:
                (rw, c), = r.rhs.items()
                if rw == r.lhs[::-1]:
                    self._swaps[r.lhs] = c
        # normal forms are strategy-independent only once every overlap
        # resolves (Bergman's diamond lemma), so confluence comes first
        self._confluence = self._resolve_overlaps()
        bad = {c.name: c.detail for c in self._confluence.failures()}
        if bad:
            raise PresentationError("rewrite system is not confluent: "
                                    + "; ".join(f"{n}: {d}" for n, d in bad.items()))
        self._validate_star_closure()

    # -- orders -------------------------------------------------------------

    def term_key(self, w: Word):
        """Degree-lexicographic order with the presentation's precedence."""
        return (len(w), tuple(self._prec[g] for g in w))

    def red_key(self, w: Word):
        """Reduction order certifying termination: weight, length, then lex."""
        return (sum(self._by_name[g].weight for g in w), len(w),
                tuple(self._red_prec[g] for g in w))

    def _validate_rules(self):
        for r in self.rules:
            if not r.lhs:
                raise PresentationError("empty rule left-hand side")
            for g in r.lhs:
                if g not in self._by_name:
                    raise PresentationError(f"unknown generator {g!r} in rule")
            lk = self.red_key(r.lhs)
            for w in r.rhs:
                for g in w:
                    if g not in self._by_name:
                        raise PresentationError(f"unknown generator {g!r} in rule")
                if not self.red_key(w) < lk:
                    raise TerminationError(
                        f"rule {' '.join(r.lhs)} -> ... does not decrease at {' '.join(w) or '1'}")

    def _validate_star_closure(self):
        for r in self.rules:
            # star the formal relation lhs - rhs, then reduce; nonzero rest
            # means the starred relation is not a consequence of the system
            starred = {self.star_word(w): c for w, c in r.relation().items()}
            if self.normalize_terms(starred):
                raise PresentationError(
                    f"relations are not *-closed at rule {' '.join(r.lhs)}")

    # -- element constructors -------------------------------------------------

    def poly(self, terms) -> "NCPoly":
        return NCPoly(self, terms)

    def zero(self) -> "NCPoly":
        return NCPoly(self, {}, normal=True)

    def one(self) -> "NCPoly":
        return NCPoly(self, {EMPTY: QRat(1)}, normal=True)

    def gen(self, name: str) -> "NCPoly":
        if name not in self._by_name:
            raise PresentationError(f"unknown generator {name!r} in {self.name}")
        return NCPoly(self, {(name,): QRat(1)})

    def word(self, *names: str) -> "NCPoly":
        for n in names:
            if n not in self._by_name:
                raise PresentationError(f"unknown generator {n!r} in {self.name}")
        return NCPoly(self, {tuple(names): QRat(1)})

    def star_word(self, w: Word) -> Word:
        return tuple(self._by_name[g].star for g in reversed(w))

    # -- rewriting ------------------------------------------------------------

    def _rule_ending(self, w: Word, end: int):
        """A rule whose left side is the factor of w ending just before `end`:
        one slice and one lookup in the left-side table per left-side length,
        shortest first."""
        for n in self._lhs_lengths:
            if n > end:
                break
            r = self._lhs.get(w[end - n:end])
            if r is not None:
                return r
        return None

    def _fold(self, v: Word, letters: Word) -> dict:
        """nf(v letters) for a normal word v, one letter at a time."""
        terms = {v: ONE}
        for y in letters:
            nxt: dict = {}
            for u, cu in terms.items():
                add_scaled(nxt, self._append(u, y), cu)
            terms = nxt
        return terms

    def _append(self, w: Word, x: str) -> dict:
        """nf(w x) for a normal word w, memoized.

        Only a redex ending at x can occur.  For a q-commutation y x -> s x y,
        x passes the whole run y^m that ends w in one step, at the cost s^m:
        nf(w x) is s^m nf(w' x) y^m, with w' the rest of w, and y^m goes back
        behind each term unchanged unless a rule crosses that seam.  The runs
        of w' are further seam steps, so the recursion is as deep as the number
        of runs x passes, not of letters.  A term whose seam is crossed, and
        any other redex, has its right side folded back letter by letter.
        """
        wx = w + (x,)
        res = self._seam.get(wx)
        if res is not None:
            return res
        r = self._rule_ending(wx, len(wx))
        if r is None:
            res = {wx: ONE}
        elif (s := self._swaps.get(r.lhs)) is not None:
            j = len(w) - 1
            while j and w[j - 1] == w[-1]:
                j -= 1
            run = w[j:]
            # the terms of nf(w' x) and the run are normal, so a redex of
            # their product crosses the seam within the longest rule
            reach = min(len(run), self._max_rule_len - 1)
            direct, crossed = {}, {}
            for v, cv in self._append(w[:j], x).items():
                vr = v + run
                n = len(v)
                for i in range(n + 1, n + reach + 1):
                    if self._rule_ending(vr, i) is not None:
                        crossed[v] = cv
                        break
                else:
                    direct[vr] = cv
            c = s if len(run) == 1 else s ** len(run)
            res = direct if c == ONE else vec_scale(direct, c)
            for v, cv in crossed.items():
                add_scaled(res, self._fold(v, run), cv * c)
        else:
            pre = wx[:len(wx) - len(r.lhs)]
            res = {}
            # the fold is written out here, not shared through _fold, so that
            # each nested seam step costs one stack frame
            for rw, c in r.rhs.items():
                terms = {pre: ONE}
                for y in rw:
                    nxt: dict = {}
                    for v, cv in terms.items():
                        add_scaled(nxt, self._append(v, y), cv)
                    terms = nxt
                add_scaled(res, terms, c)
        self._seam[wx] = res
        return res

    def normal_form_word(self, w: Word) -> dict:
        """Normal form of a single word, as a word->QRat map.

        A fold of the letters of w through `_append`, starting after the
        longest normal prefix of w.  The result is shared: do not mutate it.
        """
        res = self._nf_cache.get(w)
        if res is not None:
            return res
        n = 0
        while n < len(w) and self._rule_ending(w, n + 1) is None:
            n += 1
        res = self._fold(w[:n], w[n:])
        self._nf_cache[w] = res
        return res

    def normalize_terms(self, terms) -> dict:
        acc: dict = {}
        for w, c in terms.items():
            c = qrat(c)
            if not c.is_zero:
                add_scaled(acc, self.normal_form_word(tuple(w)), c)
        return acc

    # -- graded bases -----------------------------------------------------------

    def basis_up_to_degree(self, d: int) -> list[Word]:
        """All normal words of length <= d, in term order.

        Each layer extends the last one, in term order, by the generators in
        precedence order that leave it normal, so it comes out in term order
        with no sort.  A new redex ends at the new letter, so those letters
        depend only on the last maxlen - 1 letters of the word; they are
        memoized per such tail.
        """
        if d < 0:
            raise ValueError("degree bound must be nonnegative")
        out = [EMPTY]
        layer = [EMPTY]
        k = max(self._max_rule_len - 1, 0)
        for _ in range(d):
            nxt = []
            for w in layer:
                tail = w[max(len(w) - k, 0):]
                gs = self._next_letters.get(tail)
                if gs is None:
                    gs = self._next_letters[tail] = tuple(
                        g.name for g in self.generators
                        if self._rule_ending(tail + (g.name,), len(tail) + 1) is None)
                nxt.extend([w + (g,) for g in gs])
            layer = nxt
            out.extend(layer)
        return out

    # -- confluence ---------------------------------------------------------------

    def check_local_confluence(self, d: int):
        """The Report resolving every overlap ambiguity of rule left sides.

        The overlaps are resolved once, when the presentation is built, and a
        system with a failing one is refused there.  An ambiguity is at most
        2 * maxlen - 1 letters long, so the report covers all of them whatever
        d is; d only has to reach the longest rule.
        """
        if d < self._max_rule_len:
            raise ValueError("confluence degree must be at least the longest rule")
        return self._confluence

    def _resolve_overlaps(self):
        from .report import Check, Report

        checks = []
        seen = set()
        for r1 in self.rules:
            for r2 in self.rules:
                l1, l2 = r1.lhs, r2.lhs
                # proper overlaps: nonempty suffix of l1 equals prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k]:
                        w = l1 + l2[k:]
                        if (w, len(l1) - k, 0) in seen:
                            continue
                        seen.add((w, len(l1) - k, 0))
                        checks.append(self._resolve_overlap(w, r1, 0, r2, len(l1) - k))
                # containments: l2 a proper factor of l1
                if r1 is not r2 and len(l2) < len(l1):
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i:i + len(l2)] == l2:
                            checks.append(self._resolve_overlap(l1, r1, 0, r2, i))
        if not checks:
            checks.append(Check("no-overlaps", True, "rule set has no ambiguities",
                                tag="trivially locally confluent"))
        return Report(checks)

    def _resolve_overlap(self, w: Word, r1: RewriteRule, i1: int, r2: RewriteRule, i2: int):
        from .report import Check

        p1 = self._apply_rule_at(w, r1, i1)
        p2 = self._apply_rule_at(w, r2, i2)
        n1 = self.normalize_terms(p1)
        n2 = self.normalize_terms(p2)
        ok = n1 == n2
        name = f"overlap {' '.join(w)}"
        detail = "both reductions agree" if ok else "reductions differ by " + (
            NCPoly(self, n1, normal=True) - NCPoly(self, n2, normal=True)).brief()
        return Check(name, ok, detail, tag="diamond: both one-step reductions join")

    def _apply_rule_at(self, w: Word, r: RewriteRule, i: int) -> dict:
        pre, post = w[:i], w[i + len(r.lhs):]
        return {pre + rw + post: c for rw, c in r.rhs.items()}


def extend_word(cache: dict, w: Word, step, reverse: bool = False):
    """The image f(w) of a word under a map f extended multiplicatively from
    its letters, or anti-multiplicatively with `reverse`.

    f(w) = step(f(w[:-1]), w[-1]), or step(f(w[1:]), w[0]) with reverse.
    `cache` maps words to their images and must hold the unit at EMPTY.  The
    fold starts from the longest prefix (suffix with reverse) of w in the
    cache and caches each longer one, so every image is built by the same
    products, in the same order, as a fold from the unit.
    """
    out = cache.get(w)
    if out is not None:
        return out
    n = len(w)
    k = n - 1
    while k > 0 and (out := cache.get(w[n - k:] if reverse else w[:k])) is None:
        k -= 1
    if k <= 0:
        k, out = 0, cache[EMPTY]
    for j in range(k, n):
        if reverse:
            key = w[n - 1 - j:]
            out = step(out, key[0])
        else:
            key = w[:j + 1]
            out = step(out, key[-1])
        cache[key] = out
    return out


class NCPoly:
    """Noncommutative polynomial over a presentation, stored in normal form."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Presentation, terms, normal: bool = False):
        self.alg = alg
        if normal:
            self.terms = dict(terms)
        else:
            self.terms = alg.normalize_terms({tuple(w): c for w, c in dict(terms).items()})

    # -- algebra -----------------------------------------------------------

    def _check_same(self, other: "NCPoly"):
        if self.alg is not other.alg:
            raise PresentationError(
                f"mixing elements of {self.alg.name} and {other.alg.name}")

    def __add__(self, other):
        if isinstance(other, (int, QRat)):
            other = self.alg.poly({EMPTY: qrat(other)})
        self._check_same(other)
        acc = dict(self.terms)
        add_scaled(acc, other.terms)
        return NCPoly(self.alg, acc, normal=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, NCPoly) else -qrat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NCPoly(self.alg, {w: -c for w, c in self.terms.items()}, normal=True)

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            c = qrat(other)
            if c.is_zero:
                return self.alg.zero()
            return NCPoly(self.alg, {w: v * c for w, v in self.terms.items()}, normal=True)
        self._check_same(other)
        acc: dict = {}
        for w1, c1 in self.terms.items():
            add_scaled(acc, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return NCPoly(self.alg, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, QRat)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, QRat)):
            other = self.alg.poly({EMPTY: qrat(other)})
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Length of the longest word; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def constant_term(self) -> QRat:
        return self.terms.get(EMPTY, QRat(0))

    def support(self) -> list[Word]:
        return sorted(self.terms, key=self.alg.term_key)

    # -- involution --------------------------------------------------------------

    def star(self) -> "NCPoly":
        """The algebra involution: reverses words and stars each generator."""
        return NCPoly(self.alg, {self.alg.star_word(w): c for w, c in self.terms.items()})

    # -- formatting ---------------------------------------------------------------

    def __str__(self):
        return format_terms(self.terms.items(), self.alg.term_key)

    def brief(self, limit: int = 4) -> str:
        """The expression cut after its first `limit` terms, for FAIL witnesses."""
        return format_terms(self.terms.items(), self.alg.term_key, limit=limit)

    def __repr__(self):
        return f"<{self.alg.name}: {self}>"


def format_word(w: Word) -> str:
    return " ".join(w) if w else "1"


def format_terms(items, sort_key, word_formatter=format_word, limit=None) -> str:
    """Render (word, coefficient) pairs in the shared expression grammar,
    sorted by sort_key of the word and cut after `limit` terms.  Only the empty
    word prints as a bare coefficient; any other word formatting to 1, such as
    the unit of a tensor, keeps its coefficient in front."""
    items = sorted(items, key=lambda it: sort_key(it[0]))
    if not items:
        return "0"
    more = len(items) - limit if limit is not None and len(items) > limit else 0
    parts = []
    for w, c in items[:len(items) - more]:
        neg = c.is_negative
        mag = abs(c)
        cs = str(mag)
        if needs_parens(cs):
            cs = f"({cs})"
        if w == EMPTY:
            body = cs
        elif mag == ONE:
            body = word_formatter(w)
        else:
            body = f"{cs} {word_formatter(w)}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) + (f" + ... ({more} more terms)" if more else "")
