"""One parse of a SELECT statement: a tokenizer and a frozen IR.

tSQL translation, the shape matcher, ``EXPLAIN TEMPORAL`` and every
reader of CREATE TABLE column lists read SQL through this module.  The
grammar is the preprocessor's subset, ``[modifier] SELECT items FROM
from_items [WHERE conjuncts] [tail]``: FROM groups in parentheses are
flattened, WHERE is flattened into top-level AND-ed conjuncts, and the
tail (``GROUP BY`` / ``HAVING`` / ``ORDER BY`` / ``LIMIT``) stays
verbatim with its ``GROUP BY`` keys parsed.  The tokenizer skips
comments and keeps quoted strings and identifiers whole, so keywords
match across any run of whitespace or comments and never inside a
literal.  Every :class:`Node` keeps its source text and offset, so
emitted SQL and error offsets come straight from the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TranslationError

__all__ = ["Token", "Node", "Select", "tokenize", "modifier", "parse",
           "from_items", "columns"]


class Token(NamedTuple):
    kind: str    # "word" | "str" | "ident" | "num" | "op"
    text: str
    start: int
    end: int


_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|--[^\n]*|/\*.*?(?:\*/|\Z))
      | (?P<str>'[^']*(?:''[^']*)*'?)
      | (?P<ident>"[^"]*(?:""[^"]*)*"?|`[^`]*`?|\[[^\]]*\]?)
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|<>|!=|==|\|\||.)""",
    re.VERBOSE | re.DOTALL,
)
_MODIFIER_RE = re.compile(
    r"""\s*(?: (?P<nonseq>NONSEQUENCED\s+VALIDTIME)
              | (?P<kind>VALIDTIME)(?:\s+PERIOD\s+'(?P<period>[^']*)')?
              | (?P<kind2>SNAPSHOT)(?:\s+AT\s+'(?P<at>[^']*)')? )
        \s+(?=SELECT\b)""",
    re.IGNORECASE | re.VERBOSE,
)
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_COMPARISONS = frozenset({"<=", ">=", "<>", "!=", "==", "=", "<", ">"})
#: Words that would change comparison semantics if read as column names.
_RESERVED = frozenset({"null", "true", "false", "not", "in", "is", "like",
                       "between", "or", "and", "case"})
_CLAUSES = ("WHERE", "GROUP BY", "ORDER BY", "HAVING", "LIMIT")
#: Words that open a table constraint rather than a column definition.
_CONSTRAINTS = frozenset({"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"})


def tokenize(text: str) -> List[Token]:
    """The tokens of *text*, comments and whitespace dropped."""
    return [Token(match.lastgroup, match.group(), match.start(), match.end())
            for match in _TOKEN_RE.finditer(text) if match.lastgroup != "skip"]


class Node(NamedTuple):
    """One classified piece of a statement: ``col`` (``name``,
    ``qualifier``), ``lit`` (``value``), ``param``, ``call`` (lower-case
    ``name``, ``args``), ``cmp`` (operator ``name``, ``args`` = left,
    right), ``table`` (FROM item ``name`` and ``alias``) or ``other``.
    A select item's ``AS`` name is its ``alias``."""

    kind: str
    text: str
    start: int
    name: str = ""
    qualifier: str = ""
    alias: Optional[str] = None
    args: Tuple["Node", ...] = ()
    value: object = None


@dataclass(frozen=True)
class Select:
    """A parsed SELECT: classified nodes plus its clauses as written.
    Items and conjuncts are classified on first use (translation needs
    neither; shape matching only past its pre-filter)."""

    source: str
    modifier: str                   # "" or the upper-cased modifier words
    period: Optional[str]           # the AT / PERIOD text, quotes removed
    from_items: Tuple[Node, ...]
    group_by: Tuple[Node, ...]
    clauses: Tuple[str, ...]        # the tail's top-level clause keywords
    params: int                     # ``?`` placeholders
    select_list: str
    from_list: str
    where: Optional[str]            # None without a WHERE clause
    tail: str
    offsets: Tuple[int, int]        # of from_list and tail in the source
    clause_tokens: Tuple[Tuple[Token, ...], Tuple[Token, ...]]  # select list, WHERE
    added_items: Tuple[Node, ...] = ()       # by translation, aliased
    added_conjuncts: Tuple[Node, ...] = ()

    @cached_property
    def items(self) -> Tuple[Node, ...]:
        tokens = self.clause_tokens[0]
        parsed = tuple(_item(self.source, part, 0) for part in _split(tokens, ","))
        return (parsed if tokens else ()) + self.added_items

    @cached_property
    def conjuncts(self) -> Tuple[Node, ...]:
        return tuple(_conjuncts(self.source, self.clause_tokens[1])) + self.added_conjuncts

    def sql(self) -> str:
        """Plain SQL: the clauses as written plus the nodes translation
        added to the select list and the WHERE clause."""
        select = ", ".join([self.select_list] + [
            f"{item.text} AS {item.alias}" for item in self.added_items])
        where = self.where
        added = " AND ".join(node.text for node in self.added_conjuncts)
        if added:
            where = f"({where}) AND {added}" if where else added
        return (f"SELECT {select} FROM {self.from_list}"
                + (f" WHERE {where}" if where else "")
                + (f" {self.tail}" if self.tail else ""))

    def translated(self, items: Sequence[Node] = (),
                   conjuncts: Sequence[Node] = ()) -> "Select":
        """Without the modifier; *items* (aliased) and *conjuncts* appended."""
        return replace(self, modifier="", period=None,
                       added_items=self.added_items + tuple(items),
                       added_conjuncts=self.added_conjuncts + tuple(conjuncts))


def _top(tokens: Sequence[Token]) -> Iterator[Tuple[int, Token]]:
    """``(index, token)`` for the tokens outside any parentheses."""
    depth = 0
    for index, token in enumerate(tokens):
        if token.text == "(":
            depth += 1
        elif token.text == ")":
            depth -= 1
        elif depth == 0:
            yield index, token


def _split(tokens: Sequence[Token], separator: str) -> List[Sequence[Token]]:
    """Split at the top-level operator or (upper-case) word *separator*."""
    cuts = [index for index, token in _top(tokens)
            if len(token.text) == len(separator) and token.text.upper() == separator]
    bounds = [-1] + cuts + [len(tokens)]
    return [tokens[a + 1:b] for a, b in zip(bounds, bounds[1:])]


def _enclosed(tokens: Sequence[Token]) -> bool:
    """Is the whole of *tokens* one parenthesized group?"""
    return len(tokens) > 1 and tokens[0].text == "(" and tokens[-1].text == ")" \
        and not any(_top(tokens))


def _span(tokens: Sequence[Token], at: int) -> Tuple[int, int]:
    """The source span of *tokens*; empty at *at* when there are none."""
    return (tokens[0].start, tokens[-1].end) if tokens else (at, at)


def _text(source: str, tokens: Sequence[Token]) -> str:
    return source[tokens[0].start:tokens[-1].end] if tokens else ""


def _node(source: str, tokens: Sequence[Token], at: int) -> Node:
    start, end = _span(tokens, at)
    text = source[start:end]
    for index, token in _top(tokens) if len(tokens) > 2 else ():
        if token.kind == "op" and token.text in _COMPARISONS:
            return Node("cmp", text, start, name=token.text, args=(
                _node(source, tokens[:index], start),
                _node(source, tokens[index + 1:], token.end)))
    if len(tokens) == 1 and tokens[0].kind == "word" \
            and text.lower() not in _RESERVED:
        return Node("col", text, start, name=text)
    if len(tokens) == 1 and tokens[0].kind == "str" and len(text) > 1 \
            and text.endswith("'"):
        return Node("lit", text, start, value=text[1:-1].replace("''", "'"))
    if text == "?":
        return Node("param", text, start)
    if tokens and _NUMBER_RE.match(text):
        value = float(text) if any(c in text for c in ".eE") else int(text)
        return Node("lit", text, start, value=value)
    if len(tokens) == 3 and tokens[1].text == "." \
            and tokens[0].kind == tokens[2].kind == "word":
        return Node("col", text, start, name=tokens[2].text, qualifier=tokens[0].text)
    if len(tokens) > 2 and tokens[0].kind == "word" and _enclosed(tokens[1:]):
        inner = tokens[2:-1]
        args = tuple(_node(source, part, tokens[1].end)
                     for part in _split(inner, ",")) if inner else ()
        return Node("call", text, start, name=tokens[0].text.lower(), args=args)
    return Node("other", text, start)


def _item(source: str, tokens: Sequence[Token], at: int) -> Node:
    if len(tokens) > 2 and tokens[-1].kind == "word" \
            and tokens[-2].kind == "word" and tokens[-2].text.upper() == "AS":
        return _node(source, tokens[:-2], at)._replace(alias=tokens[-1].text)
    return _node(source, tokens, at)


def _conjuncts(source: str, tokens: Sequence[Token]) -> List[Node]:
    out: List[Node] = []
    for part in _split(tokens, "AND"):
        if _enclosed(part):
            out.extend(_conjuncts(source, part[1:-1]))
        elif part:
            out.append(_node(source, part, 0))
    return out


def from_items(source: str, tokens: Optional[Sequence[Token]] = None) -> List[Node]:
    """The FROM items of *source* (or of its *tokens*), groups flattened;
    an item that is not ``table [AS] alias`` has kind ``other``."""
    items: List[Node] = []
    for part in filter(None, _split(tokenize(source) if tokens is None else tokens, ",")):
        if _enclosed(part):
            items.extend(from_items(source, part[1:-1]))
            continue
        text, start = _text(source, part), part[0].start
        words = [token.text for token in part if token.kind == "word"]
        if len(words) == len(part) and (
                len(words) <= 2 or (len(words) == 3 and words[1].upper() == "AS")):
            items.append(Node("table", text, start, name=words[0], alias=words[-1]))
        else:
            items.append(Node("other", text, start))
    return items


def modifier(text: str) -> Tuple[str, Optional[str], int]:
    """``(modifier, AT/PERIOD text, offset of SELECT)``, or ``("", None,
    0)`` unless a TSQL2 modifier precedes ``SELECT``."""
    match = _MODIFIER_RE.match(text)
    if not match:
        return "", None, 0
    kind = "NONSEQUENCED VALIDTIME" if match["nonseq"] else (
        match["kind"] or match["kind2"]).upper()
    return kind, match["period"] if match["period"] is not None else match["at"], match.end()


def parse(text: str) -> Select:
    """Parse one (optionally tSQL-modified) SELECT statement; raises
    :class:`TranslationError` only without SELECT or a top-level FROM."""
    kind, period, select_at = modifier(text)
    tokens = [token for token in tokenize(text) if token.start >= select_at]
    while tokens and tokens[-1].text == ";":
        tokens.pop()
    if not tokens or tokens[0].text.upper() != "SELECT":
        raise TranslationError("statement must start with SELECT")
    marks = {}
    for index, token in _top(tokens):
        word = token.text.upper() if token.kind == "word" else ""
        if word in ("GROUP", "ORDER") and tokens[index + 1:index + 2] \
                and tokens[index + 1].text.upper() == "BY":
            word += " BY"
        if (word == "FROM" or "FROM" in marks and word in _CLAUSES) \
                and word not in marks:
            marks[word] = index
    if "FROM" not in marks:
        raise TranslationError("statement has no FROM clause")
    from_at = marks.pop("FROM")
    bounds = sorted((index, word) for word, index in marks.items()) + [(len(tokens), "")]
    from_end = tail_at = bounds[0][0]
    where = None
    if bounds[0][1] == "WHERE":
        tail_at = bounds[1][0]
        where = tokens[from_end + 1:tail_at]
    tail = [(index, word) for index, word in bounds if index >= tail_at]
    group_by = ()
    if tail[0][1] == "GROUP BY":
        group_by = tuple(_node(text, part, tokens[tail_at + 1].end)
                         for part in _split(tokens[tail_at + 2:tail[1][0]], ","))
    select_tokens, from_tokens = tokens[1:from_at], tokens[from_at + 1:from_end]
    return Select(
        source=text, modifier=kind, period=period,
        from_items=tuple(from_items(text, from_tokens)),
        group_by=group_by,
        clauses=tuple(word for _index, word in tail[:-1]),
        params=[token.text for token in tokens].count("?"),
        select_list=_text(text, select_tokens),
        from_list=_text(text, from_tokens),
        where=None if where is None else _text(text, where),
        tail=_text(text, tokens[tail_at:]),
        offsets=(_span(from_tokens, tokens[from_at].end)[0],
                 _span(tokens[tail_at:], tokens[-1].end)[0]),
        clause_tokens=(tuple(select_tokens), tuple(where or ())),
    )


def columns(ddl: str) -> List[Tuple[str, str, str]]:
    """``(name, declared type, collation)`` per column definition of a
    CREATE TABLE text, in order; "" for no type, no or BINARY collation."""
    out = []
    for part in _split(tokenize(ddl[ddl.find("(") + 1:ddl.rfind(")")]), ","):
        words = [token.text.strip('"`[]') for token in part]
        upper = [word.upper() for word in words]
        if words and upper[0] not in _CONSTRAINTS:
            collation = upper[upper.index("COLLATE", 1) + 1] if "COLLATE" in upper[1:-1] else ""
            out.append((words[0], words[1] if len(words) > 1 else "",
                        "" if collation == "BINARY" else collation))
    return out
