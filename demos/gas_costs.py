"""Compute per-operation gas across model sizes and print the cost table.

Registration and reward distribution are parameter-independent; submission,
aggregation, and validation grow affinely with the parameter count, which is
what makes fully on-chain aggregation impractical past ~10^5 parameters.

Run: python demos/gas_costs.py
"""
from fedchain.ledger import GasModel, gas_csv_text
from fedchain.scenario import gas_sweep, parse_config

CONFIG = {
    "seed": 1,
    "rounds": 1,
    "dataset": {
        "n_clients": 1,
        "samples_per_client": [4],
        "dim": 2,
        "noise": 0.0,
        "behaviors": ["honest"],
    },
}


def main():
    sizes = [10, 100, 1_000, 10_000]
    print(f"computing gas from the cost model, sizes {sizes} ...\n")
    rows = gas_sweep(parse_config(CONFIG), sizes)
    print(gas_csv_text(rows))

    model = GasModel()
    print("cost model (gas = base + per_param * p):")
    for op_class in ("register", "submit", "aggregate", "validate", "distribute"):
        base, slope = model.coefficients(op_class)
        print(f"  {op_class:10s} base={base:>9,}  per-param={slope:>7,}")
    print(f"  deployment (one-time): {model.deploy_cost:,} gas")

    submit_small = rows[10]["submit"]
    submit_large = rows[10_000]["submit"]
    print(f"\nsubmitting 10 parameters costs {submit_small:,} gas; "
          f"10,000 parameters costs {submit_large:,} gas "
          f"({submit_large / submit_small:,.0f}x) — hence 10,000-parameter "
          f"batches and off-chain fairness bookkeeping.")


if __name__ == "__main__":
    main()
