"""Desk-scale workbench for pruning and robustness testing of NER taggers.

The package is organized by pipeline stage: corpus loading and span
decoding (corpus), entity replacement (perturb), entity-level scoring
and run records (evaluation), magnitude pruning (pruning), the
feed-forward tagger (tagger), the grid runner (experiment), result
aggregation (analysis) and the command line front end (cli). Each name
is imported from its module; the package root re-exports none.
"""
