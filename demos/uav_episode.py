"""One data-collection episode, narrated round by round.

Five ground devices price their imagery by distance and freshness; the
collector auctions each round by second price, flies to the winner, and
the winner's scene gets re-captured. Watch the battery drain and the
winner alternate as the reference pile follows the collector around.
"""

from myerson_airnet.sim import SecondPriceMechanism, WorldConfig, generate_world, run_episode

config = WorldConfig(n_devices=5, battery=2500.0, seed=42, max_rounds=12)
state = generate_world(config)

print(f"collector starts at ({config.uav_x:.0f}, {config.uav_y:.0f}) "
      f"with {config.battery:.0f} m of battery")
for idx, (x, y) in enumerate(state.positions):
    print(f"  device {idx} at ({x:7.1f}, {y:7.1f})")

records = run_episode(state, SecondPriceMechanism())

print(f"\n{'round':>5} {'winner':>6} {'payment':>8} {'flown':>8} {'battery':>8} {'values'}")
for record in records:
    values = " ".join(f"{v:.2f}" for v in record.valuations)
    winner = "-" if record.outcome.winner is None else record.outcome.winner
    print(f"{record.round:>5} {winner:>6} {record.outcome.payment:8.4f} "
          f"{record.distance_flown:8.1f} {record.battery:8.1f}  [{values}]")

print(f"\nepisode over after {len(records)} rounds, battery {state.battery:.1f} m,"
      f" total revenue {sum(r.outcome.revenue for r in records):.4f}")
