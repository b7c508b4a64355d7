"""The JSON text of a CLI payload, without the `json` module.

`dumps(obj)` returns exactly what ``json.dumps(obj, indent=2)`` returns
for a payload of dicts with string keys, lists, tuples, strings, ints,
bools and None; any other leaf is a TypeError, as in `json`. With an indent
the `json` module encodes in pure Python; here each container is one
join, so a large table renders several times faster. An int is written by
`int.__repr__`, as `json` writes it, so an int beyond Python's int-to-str
digit limit raises the same ValueError. Only a string that needs escaping
(a quote, a backslash, a control character or non-ASCII text) is handed
to `json`.
"""

from __future__ import annotations


def _string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


def _text(x, nl: str) -> str:
    """x at the nesting whose line break and indent is `nl`."""
    cls = x.__class__
    if cls is int:
        return int.__repr__(x)
    if cls is str:
        return _string(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join([f"{_string(k)}: {_text(v, inner)}"
                                                  for k, v in x.items()]) + nl + "}")
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in x]) + nl + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``."""
    return _text(obj, "\n")
