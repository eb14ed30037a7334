/**
 * @file
 * Kinetic Battery Model (KiBaM) after Manwell & McGowan, the model
 * the paper uses for its charge/discharge logs (ref [32]).
 *
 * The battery charge is split across two wells: an *available* well
 * (fraction c of capacity) that supplies the load directly, and a
 * *bound* well (fraction 1-c) that trickles charge into the available
 * well at rate constant k. Sustained high draw depletes the available
 * well faster than the bound well can refill it, reproducing the
 * rate-capacity effect and post-load recovery of real lead-acid
 * batteries.
 *
 * Charge is tracked in joules; "current" is electrical power in watts
 * (terminal voltage is folded into the units, standard practice in
 * datacenter battery studies).
 */

#ifndef PAD_BATTERY_KIBAM_H
#define PAD_BATTERY_KIBAM_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "util/logging.h"
#include "util/types.h"

namespace pad::battery {

/** Static KiBaM parameters. */
struct KibamParams {
    /** Total charge capacity in joules. */
    Joules capacity = 0.0;
    /** Fraction of capacity held in the available well (0 < c < 1). */
    double c = 0.625;
    /** Well equalization rate constant in 1/s. */
    double k = 4.5e-4;
};

/**
 * Closed-form coefficients of the Manwell-McGowan update for one dt.
 * Each value is the whole original expression — never a refactored
 * regrouping — so reusing a cached value cannot change a single bit
 * downstream.
 */
struct KibamCoeffs {
    /** The dt the coefficients were computed for; <0 = invalid. */
    double dt = -1.0;
    /** exp(-k * dt). */
    double r = 1.0;
    /** k * dt. */
    double kt = 0.0;
    /** ((1 - r) + c * (kt - 1 + r)) / k, the affine-solve denominator. */
    double mspDenom = 0.0;
};

/**
 * Memo of KibamCoeffs for one parameter set. The simulator advances
 * batteries with a fixed dt per phase (5 min coarse, 100 ms fine),
 * so exp(-k*dt) is a loop invariant; a depletion crossing adds two
 * one-off dts (the crossing and the rest of the step), and the ring
 * of four slots keeps the phase dt resident across them.
 */
class KibamCoeffCache
{
  public:
    /** Coefficients for @p dt under @p p, computed on first use. */
    const KibamCoeffs &
    get(const KibamParams &p, double dt)
    {
        for (const KibamCoeffs &c : slots_)
            if (c.dt == dt)
                return c;
        KibamCoeffs &c = slots_[next_];
        next_ = (next_ + 1) % slots_.size();
        const double r = std::exp(-p.k * dt);
        const double kt = p.k * dt;
        c.dt = dt;
        c.r = r;
        c.kt = kt;
        c.mspDenom = ((1.0 - r) + p.c * (kt - 1.0 + r)) / p.k;
        return c;
    }

  private:
    std::array<KibamCoeffs, 4> slots_{};
    std::size_t next_ = 0;
};

// ---------------------------------------------------------------------
// The KiBaM kernel: free functions over the two well charges (y1 =
// available, y2 = bound, joules). battery::Kibam and the SoA engine's
// per-rack arrays both run on these, so there is one copy of the
// physics.
// ---------------------------------------------------------------------

/** Numerical slack for well-boundary comparisons, in joules. */
inline constexpr Joules kKibamEps = 1e-9;

/**
 * Advance the wells by @p dt at constant @p power (positive =
 * discharge) on the closed form, without boundary handling.
 */
inline void
kibamAdvance(double &y1, double &y2, const KibamParams &p,
             KibamCoeffCache &cache, Watts power, double dt)
{
    const KibamCoeffs &cc = cache.get(p, dt);
    const double k = p.k;
    const double c = p.c;
    const double y0 = y1 + y2;
    const double y1n = y1 * cc.r + (y0 * k * c - power) * (1.0 - cc.r) / k -
                       power * c * (cc.kt - 1.0 + cc.r) / k;
    const double y2n = y2 * cc.r + y0 * (1.0 - c) * (1.0 - cc.r) -
                       power * (1.0 - c) * (cc.kt - 1.0 + cc.r) / k;
    y1 = y1n;
    y2 = y2n;
}

/**
 * Available-well charge after drawing @p power for @p t seconds,
 * without mutating the wells: the y1 line of kibamAdvance() on
 * uncached coefficients (t varies per call).
 */
inline double
kibamAvailableAfter(double y1, double y2, const KibamParams &p,
                    Watts power, double t)
{
    const double k = p.k;
    const double c = p.c;
    const double y0 = y1 + y2;
    const double r = std::exp(-k * t);
    const double kt = k * t;
    return y1 * r + (y0 * k * c - power) * (1.0 - r) / k -
           power * c * (kt - 1.0 + r) / k;
}

/** Time in [0, dt] at which @p power empties y1: 60-step dyadic bisection. */
inline double
kibamCrossing(double y1, double y2, const KibamParams &p, Watts power,
              double dt)
{
    double lo = 0.0, hi = dt;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (kibamAvailableAfter(y1, y2, p, power, mid) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Set the wells to state of charge @p soc, at equal head. */
inline void
kibamSetSoc(double &y1, double &y2, const KibamParams &p, double soc)
{
    y1 = soc * p.c * p.capacity;
    y2 = soc * (1.0 - p.c) * p.capacity;
}

/** State of charge: total stored charge / capacity, in [0,1]. */
inline double
kibamSoc(double y1, double y2, const KibamParams &p)
{
    return std::clamp((y1 + y2) / p.capacity, 0.0, 1.0);
}

/** Clamp the wells into their physical ranges. */
inline void
kibamClamp(double &y1, double &y2, const KibamParams &p)
{
    y1 = std::clamp(y1, 0.0, p.c * p.capacity);
    y2 = std::clamp(y2, 0.0, (1.0 - p.c) * p.capacity);
}

/**
 * Largest constant power sustainable for the whole of the next
 * @p dt seconds without emptying the available well.
 */
inline Watts
kibamMaxSustainablePower(double y1, double y2, const KibamParams &p,
                         KibamCoeffCache &cache, double dt)
{
    PAD_ASSERT(dt > 0.0);
    // y1(dt) is affine in the power draw I; solve y1(dt) = 0 for I.
    const KibamCoeffs &cc = cache.get(p, dt);
    const double numer = y1 * cc.r + (y1 + y2) * p.c * (1.0 - cc.r);
    if (cc.mspDenom <= 0.0)
        return 0.0;
    return std::max(0.0, numer / cc.mspDenom);
}

/**
 * Advance the wells by @p dt seconds under constant power draw
 * @p power (positive = discharge, negative = charge). The draw is
 * truncated when the available well empties part-way through the
 * step, and charge is capped at the room left.
 *
 * @return the energy delivered (>= 0) or absorbed (<= 0), joules
 */
inline Joules
kibamStep(double &y1, double &y2, const KibamParams &p,
          KibamCoeffCache &cache, Watts power, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    if (dt == 0.0 || power == 0.0) {
        // Even with no load the wells equalize.
        if (dt > 0.0) {
            kibamAdvance(y1, y2, p, cache, 0.0, dt);
            kibamClamp(y1, y2, p);
        }
        return 0.0;
    }

    if (power > 0.0) {
        // Discharge; cap the draw at what the available well can
        // sustain over the full step, then deliver at that rate.
        const Watts sustainable =
            kibamMaxSustainablePower(y1, y2, p, cache, dt);
        if (power <= sustainable) {
            kibamAdvance(y1, y2, p, cache, power, dt);
            kibamClamp(y1, y2, p);
            return power * dt;
        }
        if (sustainable <= 0.0) {
            kibamAdvance(y1, y2, p, cache, 0.0, dt);
            kibamClamp(y1, y2, p);
            return 0.0;
        }
        // Deliver the requested power until y1 empties, then rest
        // for the remainder of the step while the wells equalize.
        const double tcross = kibamCrossing(y1, y2, p, power, dt);
        kibamAdvance(y1, y2, p, cache, power, tcross);
        kibamClamp(y1, y2, p);
        y1 = 0.0;
        kibamAdvance(y1, y2, p, cache, 0.0, dt - tcross);
        kibamClamp(y1, y2, p);
        return power * tcross;
    }

    // Charging. Conservation comes first here: the kinetic closed
    // form can push a well past its physical bound and clamping would
    // silently lose charge, so accepted charge is split across the
    // wells (spilling overflow to the other well) and the kinetic
    // equalization is applied separately.
    const Joules room = p.capacity - (y1 + y2);
    const Joules accepted = std::min(-power * dt, room);
    if (accepted > 0.0) {
        const Joules y1room = p.c * p.capacity - y1;
        const Joules y2room = (1.0 - p.c) * p.capacity - y2;
        Joules toY1 = std::min(accepted * p.c, y1room);
        Joules toY2 = std::min(accepted - toY1, y2room);
        toY1 += std::min(accepted - toY1 - toY2, y1room - toY1);
        y1 += toY1;
        y2 += toY2;
    }
    kibamAdvance(y1, y2, p, cache, 0.0, dt);
    kibamClamp(y1, y2, p);
    return -accepted;
}

/**
 * Two-well kinetic battery state with an exact closed-form update
 * for piecewise-constant power (the kernel above on one cell).
 */
class Kibam
{
  public:
    /** Construct fully charged. */
    explicit Kibam(const KibamParams &params);

    /**
     * Advance the model by @p dt seconds under constant power draw
     * @p power (positive = discharge, negative = charge); see
     * kibamStep().
     *
     * @return the energy actually delivered (>= 0 when discharging)
     *         or absorbed (<= 0 when charging) in joules
     */
    Joules
    step(Watts power, double dt)
    {
        return kibamStep(y1_, y2_, params_, coeffs_, power, dt);
    }

    /**
     * Largest constant power the battery can sustain for the whole of
     * the next @p dt seconds without emptying the available well.
     */
    Watts
    maxSustainablePower(double dt) const
    {
        return kibamMaxSustainablePower(y1_, y2_, params_, coeffs_, dt);
    }

    /** State of charge: total stored charge / capacity, in [0,1]. */
    double soc() const { return kibamSoc(y1_, y2_, params_); }

    /** Charge in the available well, joules. */
    Joules available() const { return y1_; }

    /** Charge in the bound well, joules. */
    Joules bound() const { return y2_; }

    /** Total stored charge, joules. */
    Joules stored() const { return y1_ + y2_; }

    /** True when the available well is (numerically) empty. */
    bool depleted() const { return y1_ <= kKibamEps; }

    /** True when the battery is (numerically) full. */
    bool full() const { return stored() >= params_.capacity - kKibamEps; }

    /** Reset to fully charged. */
    void resetFull() { kibamSetSoc(y1_, y2_, params_, 1.0); }

    /** Set the state of charge directly (wells at equal head). */
    void setSoc(double soc);

    /** Static parameters. */
    const KibamParams &params() const { return params_; }

  private:
    KibamParams params_;
    Joules y1_; ///< available well charge
    Joules y2_; ///< bound well charge
    mutable KibamCoeffCache coeffs_; ///< per-dt closed-form memo
};

} // namespace pad::battery

#endif // PAD_BATTERY_KIBAM_H
