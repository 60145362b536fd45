"""Exact Shapley attribution over a small cohort: who actually moved the
global model? Contributions are valued by how much a coalition's FedAvg
aligns with the full-round aggregate; the redundant pair splits what a
unique contributor earns alone.

Run: python demos/shapley_attribution.py
"""
from fedchain.incentives import shapley_alignment
from fedchain.numerics import Fixed, GradientVector, coalition_dots, sample_weighted_mean

CLIENTS = {
    b"\x01" * 20: ("redundant-a", GradientVector.from_decimals(["1", "0", "0"])),
    b"\x02" * 20: ("redundant-b", GradientVector.from_decimals(["1", "0", "0"])),
    b"\x03" * 20: ("unique", GradientVector.from_decimals(["0", "2", "0"])),
    b"\x04" * 20: ("contrarian", GradientVector.from_decimals(["-0.5", "-0.5", "0"])),
}


def main():
    submissions = {cid: vec for cid, (_, vec) in CLIENTS.items()}
    n_map = {cid: 10 for cid in submissions}

    ids = sorted(submissions)  # the FedAvg in sorted-id order, as the contract keeps it
    vectors, counts = [submissions[i] for i in ids], [n_map[i] for i in ids]
    aggregate = sample_weighted_mean(vectors, counts)
    # every coalition's value by bitmask, as the contract scores them: the last is everyone's
    grand_value = Fixed(coalition_dots(vectors, counts, aggregate)[-1])
    print("grand-coalition value (||aggregate||^2):", grand_value.to_decimal())

    phi = shapley_alignment(submissions, n_map, aggregate)
    print("\nper-client Shapley values:")
    for cid, value in sorted(phi.items()):
        name = CLIENTS[cid][0]
        print(f"  {name:12s} phi = {value.to_decimal():>13}")

    total = sum(v.raw for v in phi.values())
    print(f"\nefficiency: sum(phi) = {total / 10**9:.9f} "
          f"= v(grand) - v(empty) (within a few ulps)")
    print("the two redundant clients split their direction's credit evenly;")
    print("the contrarian's negative phi mirrors its drag on the aggregate.")


if __name__ == "__main__":
    main()
