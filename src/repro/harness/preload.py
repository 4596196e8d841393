"""What the forkserver imports and runs before its first fork.

:mod:`repro.harness.attempt` names this module as the forkserver's only
preload, so only the server imports it.  Importing it

- imports the worker entry point and every module that holds job
  targets.  Each of those imports at module top what its targets call,
  except that :mod:`~repro.harness.suite_jobs` imports the paper-artifact
  modules on call, so that planning a sweep stays light; they are named
  here instead;
- restores the parent's ``PYTHONPATH``, takes its ``sys.path`` and
  ``sys.argv`` and runs its main module once as ``__mp_main__``, the way
  :func:`multiprocessing.spawn.prepare` would in every child.  A forked
  child then finds ``__main__`` populated and skips the rerun.

So a forked worker runs no module body.
``tests/harness/test_forkserver.py`` runs every job target in a forked
worker and fails if the worker imports a ``repro`` module the server had
not.
"""

from __future__ import annotations

import json
import os
from multiprocessing import process, spawn

import repro.fleet.shard  # noqa: F401
import repro.harness.suite_jobs  # noqa: F401
import repro.harness.worker  # noqa: F401
import repro.service.jobs  # noqa: F401
import repro.sim.batch  # noqa: F401  (fig2 and fig7 batch their sweeps)
from repro.experiments import (fig1, fig2, fig5, fig6, fig7,  # noqa: F401
                               fig8, headline, table2)
from repro.harness.attempt import MAIN_ENV, set_env


if MAIN_ENV in os.environ:  # removed before the server's first fork
    handover = json.loads(os.environ.pop(MAIN_ENV))
    set_env("PYTHONPATH", handover["pythonpath"])
    # As the forkserver's own ``__main__`` preload does, mark the process
    # inheriting: a main module that starts processes at import fails
    # instead of recursing.
    process.current_process()._inheriting = True
    try:
        spawn.prepare(handover["prepare"])
    finally:
        del process.current_process()._inheriting
