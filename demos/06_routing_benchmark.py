"""Time dynamic routing against single-pass attention routing.

    python3 demos/06_routing_benchmark.py
"""

from capsroute.bench import bench_routing, rows_to_csv

rows = bench_routing(repeats=15)
print(rows_to_csv(rows))

med = {(r.method, r.n_in, r.iterations): r.median_seconds for r in rows}
print("speedup of attention over dynamic routing, per vote-tensor width:")
for n_in in sorted({r.n_in for r in rows}):
    for r_iters in (1, 2, 3):
        ratio = med[("dynamic", n_in, r_iters)] / med[("attention", n_in, 1)]
        print(f"  n_in={n_in:5d}, dynamic r={r_iters}: {ratio:4.1f}x")

print()
print("dynamic routing costs one weighted-sum + squash per round and one")
print("agreement update and softmax between rounds. Its first round couples")
print("every vote by the constant 1/N_out, so r=1 has no softmax and costs less")
print("than attention, which scores and softmaxes its votes once before the same")
print("weighted-sum + squash; from r=2 on, attention is the cheaper of the two.")
