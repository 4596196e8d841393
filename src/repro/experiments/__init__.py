"""Paper-artifact reproduction experiments.

One module per table/figure of the paper's evaluation (see DESIGN.md §3
for the index).  Every module exposes ``run(...)`` returning structured
results and ``main()`` printing the paper-style rows; all are runnable as
``python -m repro.experiments.<name>``.

Durations: the paper's runs take minutes of wall time on real hardware.
Simulated time is cheap but not free, so every experiment accepts a
``time_scale`` that shrinks iteration lengths and the controller periods
*together* (preserving the tier-decoupling ratio).  ``time_scale=1.0``
reproduces the paper's full-length runs; the benchmark harness uses
smaller scales.  Submodules load on demand, never here, so ``python -m``
does not find the one it runs already imported.
"""
