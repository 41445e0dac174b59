"""Reference implementations that exist only to check ``src/`` code.

Each oracle is the plain, obviously-correct form of an engine whose
shipped implementation is optimized; the equivalence tests and the
perf gates run both and require identical results.
"""
