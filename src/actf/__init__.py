"""Attentive correlated temporal features for sequence classification.

A numpy-backed library with a minimal tape autodiff core, a compact bilinear
(count sketch + circular convolution) inter-frame correlation map, attentive
feature fusion, synthetic motion tasks, and a momentum-SGD training loop. On
the hot path, each frame pair's pooled correlation is the bucket sum of its
second moment x y^T / L, so no per-location correlation map is formed.

Names are imported from their submodules, e.g. ``from actf import model as M``.
"""

__version__ = "0.1.0"
