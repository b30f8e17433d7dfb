"""One trading session: price clearing, rebalancing, and target updates.

Each session is given a random subset of "active" agents, who set the
new price; the day loop draws that subset from the path's stream.  An
active agent trades the dollar amount that restores its portfolio to
its private stock-to-cash target at the new price; the price is the
unique level at which those trades absorb the exogenous cash flow
exactly.  After trading, each active agent compares how its pre-trade
portfolio performed against its target and scales the target up by its
greed factor (it sold) or down by its fear factor (it bought).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import LiquidityExhaustedError, NoSupplyError
from .market import MarketState

# Sessions never clear below this fraction of the prior price; withdrawals
# that would do so are clamped and flagged instead of annihilating the
# price, and other requests that would do so leave the day without a trade.
PRICE_RATIO_FLOOR = 0.01

# Relative tolerance for the "portfolio exactly on target" (no-update) branch.
RATIO_TIE_RTOL = 1e-12


class SessionOutcome(NamedTuple):
    """Result of one session (a named tuple, the cheapest record to
    build once per session): the external flow actually executed, and
    whether the liquidity floor fired, in which case the executed flow
    differs from the request.  The active agents are the caller's own
    ``active``."""

    cash_flow_in: float
    clamped: bool


def trading_session(
    state: MarketState,
    active: np.ndarray,
    external_flow: float = 0.0,
    level: float = 1.0,
) -> tuple[MarketState, SessionOutcome]:
    """Run one session in place and return the (mutated) state and outcome.

    Clears the price over the ``active`` agents (distinct indices),
    rebalances them, revalues everyone's stock, updates the active
    agents' targets with factors scaled by the day's signal ``level``, and
    books the external flow into the outside-investor share pool.  A
    request that would clear below ``PRICE_RATIO_FLOOR`` times the prior
    price fires the liquidity floor, and the outcome is flagged
    ``clamped``:

    - a withdrawal (a negative request) is cut to the flow that clears at
      exactly that ratio, provided that flow is still a withdrawal; once
      repeated clamps have shrunk the price until it underflows to zero,
      or until the outside pool's share count overflows, the session
      raises ``LiquidityExhaustedError`` before changing any holding or
      price;
    - any other request (a non-negative one, or a withdrawal that the
      floor would turn into an inflow: the active agents hold too little
      cash to clear above the floor even without a flow) makes a no-trade
      day: no flow is executed (``cash_flow_in`` is 0.0), and price,
      holdings and targets stay as they are; ``day`` advances as on any
      day.

    So the executed flow never exceeds a non-negative request and never
    turns a withdrawal into an inflow.

    With per-agent weights w = 1/(1+k) over the active agents, the price
    ratio is (external_flow + sum k*cash*w) / (sum stock*w); each active
    agent moves x = (k*cash - ratio*stock) * w into stock and ends at
    stock = k * (cash - x), exactly on target.  Its target becomes k*greed
    when its pre-trade stock at the new price exceeds k*cash (it sold, or
    it holds no cash), k/fear when it falls short (it bought), and stays k
    within a relative ``RATIO_TIE_RTOL``; the factors are scaled as
    1 + (factor - 1) * level.  On a day that trades, a ``level`` outside
    [0, 1] raises ``ValueError`` before any holding changes.
    """
    if not math.isfinite(external_flow):
        raise ValueError(f"external_flow must be finite, got {external_flow}")

    stock = state.stock_value[active]
    cash = state.cash[active]
    target = state.target_ratio[active]
    weight = 1.0 / (1.0 + target)
    target_cash = target * cash

    demand = float(np.dot(target_cash, weight))
    supply = float(np.dot(stock, weight))
    if supply == 0.0:
        raise NoSupplyError("all active stock values are zero")
    ratio = (external_flow + demand) / supply
    clamped = False
    if ratio < PRICE_RATIO_FLOOR:
        floor_flow = PRICE_RATIO_FLOOR * supply - demand
        if external_flow >= 0.0 or floor_flow > 0.0:  # a no-trade day
            state.day += 1
            return state, SessionOutcome(0.0, True)
        external_flow = floor_flow
        ratio = PRICE_RATIO_FLOOR
        clamped = True
    new_price = ratio * state.price
    if not new_price > 0.0:
        # repeated clamps shrink the price by PRICE_RATIO_FLOOR a day until
        # it underflows; no share count can absorb a flow at price zero
        raise LiquidityExhaustedError(
            f"price underflowed to {new_price} on day {state.day + 1}: external flow "
            f"{external_flow} exhausts market liquidity",
        )
    external_shares = state.external_shares + external_flow / new_price
    if not math.isfinite(external_shares):  # at a positive but subnormal price
        raise LiquidityExhaustedError(
            f"external share count overflowed on day {state.day + 1}: external "
            f"flow {external_flow} at price {new_price} exhausts market liquidity"
        )

    revalued = ratio * stock
    trades = (target_cash - revalued) * weight

    if level == 1.0:
        # 1 + (g - 1) * 1.0 == g for every factor 1 <= g <= 2**53: g and 1
        # are multiples of ulp(g), so g - 1 is exact and adding 1 restores g
        greed = state.greed[active]
        fear = state.fear[active]
    else:
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must lie in [0, 1], got {level}")
        greed = 1.0 + (state.greed[active] - 1.0) * level
        fear = 1.0 + (state.fear[active] - 1.0) * level
    # target update compares pre-trade holdings at the new price; done on
    # products to avoid dividing by zero-cash agents (who count as sellers)
    tolerance = RATIO_TIE_RTOL * target_cash
    sold = (revalued > target_cash + tolerance) | (cash == 0.0)
    bought = revalued < target_cash - tolerance
    new_target = np.where(sold, target * greed, np.where(bought, target / fear, target))

    state.stock_value *= ratio
    new_cash = cash - trades
    state.cash[active] = new_cash
    state.stock_value[active] = target * new_cash
    state.target_ratio[active] = new_target

    state.price = new_price
    state.external_shares = external_shares
    state.day += 1

    return state, SessionOutcome(float(external_flow), clamped)
