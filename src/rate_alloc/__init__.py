"""Measurement-bounds-proportional sampling budgets for block compressed sensing.

The library splits an image into B x B blocks, estimates each block's
sparsity in the DCT domain, converts sparsity to classical measurement
bounds, and apportions an integer measurement budget in proportion to
those bounds.  A multi-stage protocol re-optimizes the allocation
mid-sampling by solving a KL-divergence program: a binary search over
its sorted breakpoints, then one Newton step.
"""
