"""Which engines run the columnar store: the ``fastpath`` resolution rule.

``"auto"`` is columnar exactly when numpy is importable *and* some
process of the run sets ``Process.reads_columns`` (the D family, whose
agreement folds read a ``ColumnarInbox`` through its columns); ``"on"``
forces columnar for every protocol and ``"off"`` disables it.
"""

from __future__ import annotations

import inspect

import pytest

import repro.sim.columnar as columnar
from repro.core.registry import available_protocols, build_processes
from repro.sim.engine import Engine

#: The protocols whose processes read columns (lower-case registry keys).
COLUMN_READERS = {"d", "d-dynamic", "d-recovery"}

SYNC_PROTOCOLS = available_protocols("sync")


def _engine(protocol: str, fastpath: str) -> Engine:
    return Engine(build_processes(protocol, 16, 4), fastpath=fastpath)


def test_auto_is_columnar_only_for_protocols_that_read_columns(monkeypatch):
    assert COLUMN_READERS <= set(SYNC_PROTOCOLS)
    for protocol in SYNC_PROTOCOLS:
        assert _engine(protocol, "off")._fast is None, protocol
        if columnar.HAVE_NUMPY:
            expected = protocol in COLUMN_READERS
            assert (_engine(protocol, "auto")._fast is not None) == expected, protocol
            assert _engine(protocol, "on")._fast is not None, protocol
    # Without numpy, "auto" falls back to the plain store for everyone.
    monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
    for protocol in SYNC_PROTOCOLS:
        assert _engine(protocol, "auto")._fast is None, protocol


@pytest.mark.parametrize("protocol", SYNC_PROTOCOLS)
def test_column_aware_process_classes_set_reads_columns(protocol):
    """A class that handles a ``ColumnarInbox`` (itself or through a base
    class) must declare ``reads_columns``, or ``auto`` would silently
    drop its fast path; a class that never touches one must not."""
    cls = type(build_processes(protocol, 16, 4)[0])
    handles_columns = any(
        "ColumnarInbox" in inspect.getsource(klass)
        for klass in cls.__mro__
        if klass.__module__.startswith("repro.core.")
    )
    assert cls.reads_columns == handles_columns
    assert cls.reads_columns == (protocol in COLUMN_READERS)
