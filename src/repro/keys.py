"""Content keys: hashable keys that are equal for equal contents.

Specs such as :class:`~repro.hw.soc.SocSpec` hold dicts, so they are
unhashable and cannot key a cache by themselves, and a key by identity
would miss equal specs built separately (and could alias a freed
object's id).  :func:`content_key` unfolds them instead.  The frozen
specs an engine is built from derive their key once, on the instance
(:class:`ContentKeyed`), so keying the same spec again costs a lookup.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Hashable


class ContentKeyed:
    """A frozen spec whose :attr:`content_key` is derived once.

    The key is kept on the instance: ``dataclasses.replace`` builds a
    new instance, which derives its own.  A spec must not be changed
    after its key is taken, the dicts it holds included.
    """

    @cached_property
    def content_key(self) -> Hashable:
        """:func:`content_key` of this spec."""
        return _unfold(self)


def content_key(obj) -> Hashable:
    """A hashable key that is equal for objects with equal contents.

    A hashable value keys as itself with its type (so ``1`` and ``1.0``
    key differently); unhashable dataclasses, dicts and sequences are
    unfolded recursively.  A :class:`ContentKeyed` spec gives its cached
    key.
    """
    if isinstance(obj, ContentKeyed):
        return obj.content_key
    return _unfold(obj)


def _unfold(obj) -> Hashable:
    try:
        hash(obj)
    except TypeError:
        pass
    else:
        return (type(obj).__qualname__, obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            content_key(getattr(obj, f.name))
            for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return ("dict", frozenset((content_key(k), content_key(v))
                                  for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(content_key(v) for v in obj)
    raise TypeError(f"cannot key on a {type(obj).__qualname__}")
