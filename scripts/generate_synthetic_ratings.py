#!/usr/bin/env python3
"""Write a deterministic synthetic ratings file in the u.data layout.

Default output matches the shape of the MovieLens-100k file: 943 users,
about 100k ratings, 1..5 scale, at least 15 ratings per user.
"""

import argparse

from gossipcf.synth import generate_ratings, write_ratings_file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/synthetic_100k.data")
    parser.add_argument("--users", type=int, default=943)
    parser.add_argument("--items", type=int, default=1682)
    parser.add_argument("--ratings", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20240101)
    args = parser.parse_args()
    try:
        ratings = generate_ratings(
            n_users=args.users,
            n_items=args.items,
            target_ratings=args.ratings,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    write_ratings_file(args.out, ratings)
    total = sum(len(r) for r in ratings.values())
    print(f"wrote {args.out}: {len(ratings)} users, {total} ratings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
