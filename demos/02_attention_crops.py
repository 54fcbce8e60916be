#!/usr/bin/env python3
"""Build the Gaussian pseudo-attention window for a detection and cut a
fixed-size feature crop with the attention appended as an extra channel.

The window is the box expanded by a ratio to an M x M square, so resizing
to the fixed 16 px crop side never distorts the aspect ratio. Attention is 1
on the box itself and decays as an unnormalized Gaussian outside.
"""

import numpy as np

from aeropipe import AttentionConfig, BBox, FeatureGrid, attention_map, crop_and_resize, expanded_window

box = BBox(20, 14, 40, 30)  # 20 x 16 detection
cfg = AttentionConfig(expand_ratio=1.5, sigma_scale=0.5)

win = expanded_window(box, cfg)
print(f"box {box.as_tuple()} -> window origin ({win.x0}, {win.y0}), side {win.size}")

attn = attention_map(box, cfg)
print("attention is exactly 1 on the box:", float(attn.values[attn.box_window[1], attn.box_window[0]]))
print("value one pixel outside the left edge:",
      round(float(attn.values[attn.box_window[1] + 2, attn.box_window[0] - 1]), 4))
print("corner of the expanded window:", round(float(attn.values[0, 0]), 4))

# a crop from a synthetic one-level, scale-1 feature grid: 3 channels + 1 attention channel
rng = np.random.default_rng(0)
features = FeatureGrid((64, 96), [(1, rng.random((3, 64, 96)))])
crop = crop_and_resize(features, box, cfg)
print("crop tensor shape:", crop.tensor.shape, "(3 feature channels + attention)")
print("attention channel range:",
      round(float(crop.tensor[3].min()), 4), "to", round(float(crop.tensor[3].max()), 4))
