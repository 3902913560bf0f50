"""Line-oriented presentation files: algebras with optional Hopf blocks,
coactions, corepresentations, connections and morphisms.

`_ExprParser` is the one grammar that turns text into expressions:

    expression := term (('+'|'-') term)*
    term       := leg ('(x)' leg)*
    leg        := sign* [coefficient] word

A coefficient is a product of powers of scalars in Q(q): integers, q, * and /,
^, and + - inside parentheses.  A word is space-separated generator names, or
`1` alone for the unit.  The signs of every leg scale the term.  A leg with
neither coefficient nor word is refused, and so is a trailing sign.  Each power
x^e is bounded: its exponent, the q-degree of its result and the estimated bit
length of its integer coefficients.  A join element is a tensor over
(`join.T`, A, H), in which t is a generator of the first leg.
"""

from __future__ import annotations

from .comodule import Coaction, Corepresentation
from .connection import CoalgebraSpan, StrongConnection, TableLineError
from .linalg import ONE
from .ncalg import Generator, NCPoly, Presentation, PresentationError
from .scalars import QRat, qrat
from .structure import Morphism, attach_hopf
from .tensors import TensorElem

_RESERVED_NAMES = {"q", "t", "x"}

# largest |e| accepted in a power x^e, and largest q-degree of its
# result; expanding a power costs time and memory at least linear in both
MAX_EXPONENT = 1000
# largest estimated bit length of an integer coefficient of a power's result;
# at this size a power of q-degree 1000 still expands in seconds, not minutes
MAX_COEFFICIENT_BITS = 3000


class PresentationFileError(Exception):
    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


# ---------------------------------------------------------------------------
# expression tokens

def _tokenize(text: str, line: int, filename: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(x)", i):
            toks.append(("tensor", "(x)"))
            i += 3
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # a trailing star belongs to the name only at a word boundary,
            # so q*q stays a product while g* is a generator
            if j < n and text[j] == "*" and \
                    (j + 1 == n or not (text[j + 1].isalnum() or text[j + 1] in "_(")):
                j += 1
            toks.append(("ident", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
            continue
        raise PresentationFileError(f"unexpected character {ch!r}", filename, line)
    return toks


class _ExprParser:
    """The module's expression grammar over tokens; a coefficient is a
    `scalar_term` in Q(q)."""

    def __init__(self, toks, filename: str, line: int):
        self.toks = toks
        self.pos = 0
        self.filename = filename
        self.line = line

    def error(self, msg: str):
        raise PresentationFileError(msg, self.filename, self.line)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expression(self, legs) -> dict:
        """{tuple-of-words: QRat}, with no zero values; legs fixes the tensor
        degree.  The sign between two terms is read as a sign of the second
        term's first leg."""
        acc: dict = {}
        while True:
            key, coeff = self.term(legs)
            acc[key] = acc[key] + coeff if key in acc else coeff
            kind, val = self.peek()
            if kind is None:
                return {k: v for k, v in acc.items() if not v.is_zero}
            if kind not in ("+", "-"):
                self.error(f"unexpected {val!r}")

    def term(self, legs):
        """(tuple of words, QRat) of one term, its words checked against legs."""
        coeff, words = ONE, []
        while True:
            c, word = self.leg()
            coeff = coeff * c
            words.append(word)
            if self.peek()[0] != "tensor":
                break
            self.next()
        if len(words) != len(legs):
            self.error(f"term has {len(words)} tensor legs, expected {len(legs)}")
        for leg, word in zip(legs, words):
            for g in word:
                if g not in leg._by_name:
                    self.error(f"unknown generator {g!r} in {leg.name}")
        return tuple(words), coeff

    def leg(self):
        """(signed coefficient, word) of one tensor leg."""
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        kind, val = self.peek()
        has_coeff = kind in ("int", "(") or (kind == "ident" and val == "q")
        coeff = self.scalar_term() if has_coeff else ONE
        word = []
        if self.peek() == ("int", 1):
            self.next()  # the unit word, after a coefficient
        else:
            while self.peek()[0] == "ident":
                name = self.next()[1]
                if name == "q":
                    self.error("'q' cannot appear inside a word")
                word.append(name)
        if not has_coeff and not word:
            self.error("empty tensor leg" if kind in (None, "tensor") else f"unexpected {val!r}")
        return (coeff if sign > 0 else -coeff), tuple(word)

    def scalar_expr(self) -> QRat:
        v = self.scalar_term()
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.next()
                v = v + self.scalar_term()
            elif kind == "-":
                self.next()
                v = v - self.scalar_term()
            else:
                return v

    def scalar_term(self) -> QRat:
        v = self.scalar_unary()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.next()
                v = v * self.scalar_unary()
            elif kind == "/":
                self.next()
                d = self.scalar_unary()
                if d.is_zero:
                    self.error("division by zero")
                v = v / d
            else:
                return v

    def scalar_unary(self) -> QRat:
        kind, _ = self.peek()
        if kind == "-":
            self.next()
            return -self.scalar_unary()
        if kind == "+":
            self.next()
            return self.scalar_unary()
        return self.scalar_power()

    def scalar_power(self) -> QRat:
        v = self.scalar_atom()
        kind, _ = self.peek()
        if kind == "^":
            self.next()
            sign = 1
            kind, val = self.next()
            if kind == "-":
                sign = -1
                kind, val = self.next()
            if kind != "int":
                self.error("integer exponent expected after '^'")
            e = sign * val
            if abs(e) > MAX_EXPONENT:
                self.error(f"exponent {e} exceeds the limit {MAX_EXPONENT}")
            if e < 0 and v.is_zero:
                self.error("negative powers only apply to nonzero scalars")
            # degrees multiply, so a tower like (q^1000)^1000 stops here
            qdeg = max(len(v.num), len(v.den)) - 1
            if abs(e) * qdeg > MAX_EXPONENT:
                self.error(f"power of q-degree {abs(e) * qdeg} exceeds the limit "
                           f"{MAX_EXPONENT}")
            # so do bit lengths: a sum of n terms below 2^b, raised to e, stays
            # below 2^(e (b + log2 n)), so a tower like (2^1000)^1000 stops too
            polys = (v.num, v.den)
            b = max(abs(x).bit_length() for p in polys for x in p)
            n = max(sum(1 for x in p if x) for p in polys)
            bits = abs(e) * (b + (n - 1).bit_length())
            if bits > MAX_COEFFICIENT_BITS:
                self.error(f"power with coefficients of an estimated {bits} bits exceeds "
                           f"the limit {MAX_COEFFICIENT_BITS}")
            return v ** e
        return v

    def scalar_atom(self) -> QRat:
        kind, val = self.next()
        if kind == "int":
            return qrat(val)
        if kind == "ident" and val == "q":
            return QRat((0, 1))
        if kind == "(":
            v = self.scalar_expr()
            kind, _ = self.next()
            if kind != ")":
                self.error("expected ')'")
            return v
        self.error("expected integer, 'q' or '('")


def parse_expression(text: str, legs, filename: str = "<string>", line: int = 0) -> dict:
    """Parse into {tuple-of-words: QRat}, with no zero values; legs fixes the
    tensor degree."""
    toks = _tokenize(text, line, filename)
    if not toks:
        raise PresentationFileError("empty expression", filename, line)
    return _ExprParser(toks, filename, line).expression(legs)


def parse_element(alg: Presentation, text: str, filename: str = "<string>",
                  line: int = 0) -> NCPoly:
    terms = parse_expression(text, [alg], filename, line)
    return NCPoly(alg, {w: c for (w,), c in terms.items()})


def parse_tensor(legs, text: str, filename: str = "<string>", line: int = 0) -> TensorElem:
    return TensorElem(legs, parse_expression(text, list(legs), filename, line))


# ---------------------------------------------------------------------------
# workspace files

class Workspace:
    def __init__(self):
        self.algebras: dict[str, Presentation] = {}
        self.coactions: dict[str, Coaction] = {}
        self.coreps: dict[str, Corepresentation] = {}
        self.connections: dict[str, StrongConnection] = {}
        self.morphisms: dict[str, Morphism] = {}

    def pick(self, table: dict, name, what: str):
        """The entry of table called name, or its only entry when name is None."""
        if name is None and len(table) != 1:
            raise PresentationError(f"expected exactly one {what}, found {sorted(table)}")
        if name is not None and name not in table:
            raise PresentationError(f"no {what} named {name!r}, found {sorted(table)}")
        return table[name] if name is not None else next(iter(table.values()))


def parse_workspace(text: str, filename: str = "<string>") -> Workspace:
    blocks = []
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        head = stripped.split(None, 1)[0]
        if head in _BUILDERS:
            current = {"kind": head, "header": stripped, "line": lineno, "body": []}
            blocks.append(current)
            continue
        if current is None:
            raise PresentationFileError(f"line outside any block: {stripped!r}",
                                        filename, lineno)
        current["body"].append((lineno, stripped))
    ws = Workspace()
    # algebras first: every other block refers to them by name
    for block in sorted(blocks, key=lambda b: b["kind"] != "algebra"):
        try:
            _BUILDERS[block["kind"]](ws, block, filename)
        except TableLineError as exc:
            raise PresentationFileError(str(exc), filename,
                                        block["body"][exc.index][0]) from None
        except PresentationError as exc:
            raise PresentationFileError(str(exc), filename, block["line"]) from None
    return ws


def _header_fields(block, filename: str, usage: str) -> list[str]:
    """The words of a block header, checked against usage: an upper-case word
    of usage stands for a field, any other word must appear as written, and
    a bracketed tail is optional."""
    parts = block["header"].split()
    pattern = usage.split("[")[0].split()
    if len(parts) < len(pattern) or any(
            p != f and not p.isupper() for p, f in zip(pattern, parts)):
        raise PresentationFileError(f"{pattern[0]} header must read '{usage}'",
                                    filename, block["line"])
    return parts


def _generator_line(table: dict, alg: Presentation, kind: str, word: str, text: str,
                    filename: str, line: int):
    """(g, EXPR) of a line 'WORD g = EXPR' read into table: g must be a
    generator of alg that no earlier line of table named."""
    left, eq, right = text.partition("=")
    fields = left.split()
    if not eq or fields in ([], [word]):
        raise PresentationFileError("expected 'NAME = EXPR' in table line", filename, line)
    if fields[0] != word or len(fields) != 2 or fields[1] not in alg._by_name:
        raise PresentationFileError(f"{kind} lines read '{word} g = EXPR'", filename, line)
    if fields[1] in table:
        raise PresentationFileError(f"second {word} line for {fields[1]}", filename, line)
    return fields[1], right.strip()


def _build_algebra(ws: Workspace, block, filename: str):
    name = _header_fields(block, filename, "algebra NAME")[1]
    gen_names: list[str] = []
    stars: dict[str, str] = {}
    weights: dict[str, int] = {}
    order: list[str] | None = None
    red_order: list[str] | None = None
    rels: list[tuple[int, str]] = []
    tables: dict[str, dict] = {"coproduct": {}, "counit": {}, "antipode": {},
                               "antipode_inv": {}}
    hopf_lines: list[tuple[str, int, str]] = []
    for lineno, text in block["body"]:
        fields = text.split()
        key = fields[0]
        if key == "generators":
            gen_names.extend(fields[1:])
        elif key == "star":
            if len(fields) != 3:
                raise PresentationFileError("star takes two generator names",
                                            filename, lineno)
            stars[fields[1]] = fields[2]
            stars[fields[2]] = fields[1]
        elif key == "order":
            order = [f for f in fields[1:] if f != "<"]
        elif key == "reduction_order":
            red_order = [f for f in fields[1:] if f != "<"]
        elif key == "weight":
            if len(fields) != 3:
                raise PresentationFileError("weight takes a generator and an integer",
                                            filename, lineno)
            try:
                weights[fields[1]] = int(fields[2])
            except ValueError:
                raise PresentationFileError("weight must be an integer",
                                            filename, lineno) from None
        elif key == "rel":
            rels.append((lineno, text[len("rel"):].strip()))
        elif key in tables:
            hopf_lines.append((key, lineno, text))
        else:
            raise PresentationFileError(f"unknown algebra line {key!r}", filename, lineno)
    if not gen_names:
        raise PresentationFileError("algebra has no generators", filename, block["line"])
    for g in gen_names:
        if g in _RESERVED_NAMES:
            raise PresentationFileError(f"generator name {g!r} is reserved",
                                        filename, block["line"])
    if order is not None:
        if set(order) != set(gen_names):
            raise PresentationFileError("order must list every generator",
                                        filename, block["line"])
        gen_names = order
    gens = [Generator(g, stars.get(g, g), weights.get(g, 1)) for g in gen_names]
    # two-stage build: parse relations against a rule-free copy for words; it
    # carries the algebra's name, which messages about the relations print
    proto = Presentation(name, gens)
    rules = []
    for lineno, body in rels:
        if "=" not in body:
            raise PresentationFileError("rel needs '='", filename, lineno)
        left, right = body.split("=", 1)
        lhs = parse_element(proto, left.strip(), filename, lineno)
        rhs = parse_element(proto, right.strip(), filename, lineno)
        if len(lhs.terms) != 1:
            raise PresentationFileError("rule left side must be a single word",
                                        filename, lineno)
        (lw, lc), = lhs.terms.items()
        inv = QRat(1) / lc
        rules.append((lw, {w: c * inv for w, c in rhs.terms.items()}))
    alg = Presentation(name, gens, rules, reduction_precedence=red_order)
    ws.algebras[name] = alg
    for key, lineno, text in hopf_lines:
        g, rhs = _generator_line(tables[key], alg, key, key, text, filename, lineno)
        value = parse_tensor((alg, alg), rhs, filename, lineno) if key == "coproduct" \
            else parse_element(alg, rhs, filename, lineno)
        if key == "counit":
            if value.degree() > 0:
                raise PresentationFileError(f"counit of {g} must be a scalar", filename, lineno)
            value = value.constant_term()
        tables[key][g] = value
    if hopf_lines:
        attach_hopf(alg, *tables.values())


def _build_coaction(ws: Workspace, block, filename: str):
    parts = _header_fields(block, filename, "coaction NAME : A -> A (x) H")
    name, src, dst, struct = parts[1], parts[3], parts[5], parts[7]
    if src != dst:
        raise PresentationFileError("coaction must target its own algebra",
                                    filename, block["line"])
    if src not in ws.algebras or struct not in ws.algebras:
        raise PresentationFileError("coaction references unknown algebras",
                                    filename, block["line"])
    A = ws.algebras[src]
    H = ws.algebras[struct]
    table = {}
    for lineno, text in block["body"]:
        g, rhs = _generator_line(table, A, "coaction", "delta", text, filename, lineno)
        table[g] = parse_tensor((A, H), rhs, filename, lineno)
    ws.coactions[name] = Coaction(name, A, H, table)


def _build_corep(ws: Workspace, block, filename: str):
    usage = "corep NAME dim N [over ALG]"
    parts = _header_fields(block, filename, usage)
    name = parts[1]
    try:
        dim = int(parts[3])
    except ValueError:
        raise PresentationFileError(f"corep header must read '{usage}'",
                                    filename, block["line"]) from None
    if len(parts) >= 6 and parts[4] == "over":
        alg_name = parts[5]
    elif len(ws.algebras) == 1:
        alg_name = next(iter(ws.algebras))
    else:
        raise PresentationFileError("corep needs 'over ALG' with several algebras",
                                    filename, block["line"])
    if alg_name not in ws.algebras:
        raise PresentationFileError(f"unknown algebra {alg_name!r}", filename,
                                    block["line"])
    H = ws.algebras[alg_name]
    rows = []
    for lineno, text in block["body"]:
        if not text.startswith("row"):
            raise PresentationFileError("corep lines read 'row EXPR | EXPR | ...'",
                                        filename, lineno)
        cells = [c.strip() for c in text[len("row"):].split("|")]
        rows.append([parse_element(H, c, filename, lineno) for c in cells])
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise PresentationFileError(f"corep {name!r} is not {dim}x{dim}",
                                    filename, block["line"])
    ws.coreps[name] = Corepresentation(name, H, rows)


def _build_connection(ws: Workspace, block, filename: str):
    parts = _header_fields(block, filename, "connection NAME on COACTION")
    name, coaction_name = parts[1], parts[3]
    if coaction_name not in ws.coactions:
        raise PresentationFileError(f"unknown coaction {coaction_name!r}",
                                    filename, block["line"])
    delta = ws.coactions[coaction_name]
    H, A = delta.H, delta.A
    pairs = []
    for lineno, text in block["body"]:
        if not text.startswith("L"):
            raise PresentationFileError("connection lines read 'L ELEM = EXPR'",
                                        filename, lineno)
        body = text[1:].strip()
        if "=" not in body:
            raise PresentationFileError("connection line needs '='", filename, lineno)
        left, right = body.split("=", 1)
        elem = parse_element(H, left.strip(), filename, lineno)
        value = parse_tensor((A, A), right.strip(), filename, lineno)
        pairs.append((elem, value))
    span = CoalgebraSpan(H, [e for e, _ in pairs])
    ws.connections[name] = StrongConnection.from_table(span, delta, pairs, name=name)


def _build_morphism(ws: Workspace, block, filename: str):
    parts = _header_fields(block, filename, "morphism NAME : A -> B")
    name, src, dst = parts[1], parts[3], parts[5]
    if src not in ws.algebras or dst not in ws.algebras:
        raise PresentationFileError("morphism references unknown algebras",
                                    filename, block["line"])
    source, target = ws.algebras[src], ws.algebras[dst]
    images = {}
    for lineno, text in block["body"]:
        g, rhs = _generator_line(images, source, "morphism", "f", text, filename, lineno)
        images[g] = parse_element(target, rhs, filename, lineno)
    ws.morphisms[name] = Morphism(source, target, images, name=name)


_BUILDERS = {"algebra": _build_algebra, "coaction": _build_coaction, "corep": _build_corep,
             "connection": _build_connection, "morphism": _build_morphism}
