"""The one spec-string grammar: ``kind:key=value,key=value``.

Every declarative knob in the repo speaks the same tiny language —
``backend="sharded:4"``, ``cluster.serve("poisson:rate=5k,slo=2ms")``,
``repair="resilver_period=200"``, ``--net-faults drop=0.01,seed=7`` and
the rack ``topology="rack:compute=4,mem=4,oversub=4"``. Historically
each of those parsers was hand-rolled (split on ``,``, partition on
``=``, per-key ``if/elif``), so error wording, whitespace handling and
duplicate-key behaviour drifted apart. This module is the shared
grammar; the per-knob modules only declare *casts* (key -> value
parser) and keep their domain validation.

It lives under :mod:`repro.common` because the boot layer
(:mod:`repro.core.spec`) imports the knob modules at top level — the
helper must sit *below* all of them in the import graph. The public
entry point for spec authors is the re-export from
:mod:`repro.core.spec`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

#: A value parser for one spec key. Raise ``ValueError`` on bad text;
#: the grammar wraps it with the key and knob context.
Cast = Callable[[str], Any]


def split_kind(spec: str, default: str = "") -> Tuple[str, str]:
    """Split ``"kind:args"`` into ``(kind, args)``.

    The kind falls back to ``default`` when absent (``":rate=5"`` or
    ``""``); text without a colon is all kind (``"node"`` ->
    ``("node", "")``).
    """
    kind, _, args = spec.partition(":")
    return kind.strip() or default, args.strip()


def parse_kv_spec(args: str, casts: Mapping[str, Cast],
                  what: str = "spec") -> Dict[str, Any]:
    """Parse ``"key=value,key=value"`` through per-key ``casts``.

    Empty items are skipped (trailing commas are fine), duplicate keys
    keep the last value (the historical behaviour of every hand-rolled
    parser this replaces), and all three failure modes carry the knob
    name ``what`` so ``--backend`` errors never read like ``--serve``
    errors:

    * an item without ``=`` (or with an empty side) is malformed,
    * a key absent from ``casts`` is unknown (valid keys are listed),
    * a cast raising ``ValueError`` becomes a bad-value error.
    """
    out: Dict[str, Any] = {}
    for item in filter(None, (part.strip() for part in args.split(","))):
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ValueError(
                f"bad {what} item {item!r}: expected key=value")
        cast = casts.get(key)
        if cast is None:
            raise ValueError(f"unknown {what} key {key!r}; "
                             f"pick from {sorted(casts)}")
        try:
            out[key] = cast(value)
        except ValueError as exc:
            raise ValueError(
                f"bad {what} value {value!r} for key {key!r}: {exc}"
            ) from None
    return out


__all__ = ["Cast", "parse_kv_spec", "split_kind"]
