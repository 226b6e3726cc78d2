"""Why class-frequency reordering matters: an eight-row worked example.

A nominal column can only be split by equality tests, so a shallow tree cannot
isolate a *set* of values in one step. Reordering the dictionary by how often
each value lands in the target class turns the same column into an ordinal one
where a single threshold separates the correlated values.
"""

import numpy as np

from dtclust.dataset import Column, ColumnKind, Dataset
from dtclust.preprocess import build_contingency, encode_by_class_frequency
from dtclust.tree import TrainParams, best_split

# one symbolic column over four cities, eight rows, binary labels
cities = ("Amsterdam", "London", "New York", "Shanghai")
codes = np.array([1, 2, 3, 4, 4, 3, 2, 1], dtype=np.int32)
labels = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=np.int32)
column = Column("city", ColumnKind.SYMBOLIC_NOMINAL, codes, cities)
ds = Dataset((column,), labels, ("0", "1"))

print("rows (city, label):")
for c, y in zip(codes, labels):
    print(f"  {cities[c - 1]:<10} {y}")

# How often does each city fall into class 0?
table = build_contingency(column, labels, target_class=0)
print("\ncontingency for class 0:")
for entry in table.entries:
    print(f"  {entry.value:<10} {entry.in_class}/{entry.total}")

# Sort the dictionary by that frequency; ties keep the old order.
encoding, ordered = encode_by_class_frequency(column, labels, target_class=0)
print("\nreordered dictionary:", ordered.dictionary)

# With the new order a single <= split cleanly separates the class-0 cities.
ordered_ds = Dataset((ordered,), labels, ("0", "1"))
split = best_split(np.arange(8), ordered_ds, TrainParams())
pivot_city = ordered.dictionary[split.pivot - 1]
print(f"\nbest split: city <= {pivot_city}  (gain {split.gain:.4f})")
left = split.goes_left(ordered.codes)
print("left labels: ", sorted(labels[left].tolist()))
print("right labels:", sorted(labels[~left].tolist()))
print("\nNo single equality split on the original nominal column reaches this "
      "separation; the reorder made it a one-test rule.")
