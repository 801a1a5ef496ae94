"""How lane-graph structure reshapes attention.

Hand-builds a three-lane map (a chain of two successors plus one lateral
neighbor behind a dashed boundary), derives the closeness and hop-distance
matrices from it, and shows what they do to a single attention layer:
neutral biases reproduce plain attention exactly, real biases move
probability mass toward connected lanes, and solid boundary markings gate
the lateral term off.
"""

import numpy as np

from laneformer.attention import (
    BiasSet,
    attention,
    capture_softmax,
    compose_bias_matrices,
    init_attention_weights,
    init_bias_weights,
)
from laneformer.autodiff import Tensor
from laneformer.scenario import Lane, LaneConnectivity, Scenario
from laneformer.topology import build_topology


def show(name, m):
    print(f"{name}:")
    for row in m:
        print("   " + "  ".join(f"{v:6.3f}" for v in row))


def build_map(marking):
    lanes = [
        Lane(lane_id=0, lane_type="normal",
             centerline=np.array([[0.0, 0.0], [20.0, 0.0]])),
        Lane(lane_id=1, lane_type="normal",
             centerline=np.array([[20.0, 0.0], [40.0, 0.0]])),
        Lane(lane_id=2, lane_type="normal",
             centerline=np.array([[0.0, 3.5], [20.0, 3.5]])),
    ]
    conn = LaneConnectivity(successors=[(0, 1)], predecessors=[(1, 0)],
                            left=[(0, 2, marking)], right=[(2, 0, marking)])
    scene = Scenario(lanes=lanes, connectivity=conn, agents=[],
                     target_ids=[], name="demo_map")
    return build_topology(scene)


def main():
    topo = build_map("dashed")
    show("successor closeness (1/distance)", topo.m_s)
    show("successor hop counts", topo.suc_hops)
    show("lateral closeness", topo.m_l)

    heads = 1
    rng = np.random.default_rng(3)
    w = init_attention_weights(rng, 8, heads)
    x = Tensor(rng.normal(size=(3, 8)))
    bw = init_bias_weights(heads, len(topo.categories))

    # neutral set: B all ones, D_inter zero, D_outer all ones
    n = 3
    neutral = BiasSet(b=Tensor(np.ones((1, n, n))),
                      d_inter=Tensor(np.zeros((1, n, n))),
                      d_outer=Tensor(np.ones((1, n, n))))
    plain = attention(x, x, x, w, heads)
    same = attention(x, x, x, w, heads, biases=neutral)
    print("\nneutral biases vs standard attention, max diff:",
          float(np.abs(plain.data - same.data).max()))

    # every gate coefficient starts at 1, so at init all markings look the
    # same; set the double_solid entry to 0 the way training would learn to
    solid_idx = topo.categories.index("double_solid")
    bw.wc.data[0, solid_idx] = 0.0

    for marking in ("dashed", "double_solid"):
        topo = build_map(marking)
        biases = compose_bias_matrices(bw, topo, use_relations=True,
                                       use_reachability=True)
        with capture_softmax() as trace:
            attention(x, x, x, w, heads, biases=biases)
        probs = trace[0]
        print(f"\nwith a {marking} lateral boundary:")
        # pair (0, 2) is the lateral one; the gate decides whether its
        # closeness survives into the multiplicative logit bias B
        print(f"composed B[0, 2] = {float(biases.b.data[0, 0, 2]):.3f}")
        show("P", probs)


if __name__ == "__main__":
    main()
