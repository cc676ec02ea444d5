"""The farm's fork server imports this module last among its preloads (see
``bsf._pool_context``). When the master handed over a driver script, it
runs the script's top level once, as ``__mp_main__``, the way a worker's
``multiprocessing.spawn.prepare`` would: workers forked from the server then
find ``__main__`` loaded from that path and skip their own run. Without a
hand-off it does nothing."""

import json
import os
import sys
from multiprocessing import process, spawn

from .bsf import _SERVER_MAIN_VAR


def _run_driver(path: str, argv: list, sys_path: list) -> None:
    sys.argv, sys.path = argv, sys_path
    process.current_process()._inheriting = True
    try:
        spawn.import_main_path(path)
    except (Exception, SystemExit):
        # the server's __main__ is left as it was, so each worker runs the
        # driver itself and fails or exits there as it would without this
        # module (a driver without a __main__ guard raises RuntimeError at
        # its first pool, before any process starts)
        pass
    finally:
        del process.current_process()._inheriting


_handoff = os.environ.pop(_SERVER_MAIN_VAR, None)
if _handoff is not None:
    _run_driver(*json.loads(_handoff))
