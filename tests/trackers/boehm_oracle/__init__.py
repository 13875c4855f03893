"""Oracle for ``tests/trackers/test_boehm_differential.py``.

``heap.py``, ``incremental.py`` and ``gc.py`` are the Boehm heap and
collector as they were before the sweep-by-mask / write-by-slice rework,
kept verbatim apart from their imports of each other (made relative).
They pass over the whole id space in every cycle and write every column
through a fancy index, which makes them slow and easy to trust.
"""
