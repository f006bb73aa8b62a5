#include "dram/rfm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rho
{

const char *
rfmLevelName(RfmLevel level)
{
    switch (level) {
      case RfmLevel::Off: return "off";
      case RfmLevel::Relaxed: return "relaxed";
      case RfmLevel::Default: return "default";
      case RfmLevel::Strict: return "strict";
    }
    return "unknown";
}

RfmConfig
RfmConfig::forLevel(RfmLevel level)
{
    RfmConfig cfg;
    switch (level) {
      case RfmLevel::Off:
        cfg.enabled = false;
        break;
      case RfmLevel::Relaxed:
        cfg.enabled = true;
        cfg.raaimt = 64;
        cfg.victimsPerRfm = 2;
        break;
      case RfmLevel::Default:
        cfg.enabled = true;
        cfg.raaimt = 32;
        break;
      case RfmLevel::Strict:
        cfg.enabled = true;
        cfg.raaimt = 16;
        cfg.victimsPerRfm = 6;
        break;
    }
    return cfg;
}

RfmEngine::RfmEngine(const RfmConfig &cfg_, std::uint32_t num_banks)
    : cfg(cfg_), banks(num_banks)
{
    if (cfg.enabled && cfg.raaimt == 0)
        panic("RfmEngine: raaimt must be positive when RFM is enabled");
}

void
RfmEngine::reset()
{
    for (BankState &b : banks)
        b = BankState{};
    rfms = 0;
}

std::uint64_t
RfmEngine::raaIncrements(std::uint32_t bank) const
{
    return banks[bank].increments;
}

std::uint64_t
RfmEngine::totalRaaIncrements() const
{
    std::uint64_t total = 0;
    for (const BankState &b : banks)
        total += b.increments;
    return total;
}

std::uint32_t
RfmEngine::raa(std::uint32_t bank) const
{
    return banks[bank].raa;
}

void
RfmEngine::onRef()
{
    if (!cfg.enabled)
        return;
    std::uint32_t dec = cfg.refDecrementEffective();
    for (BankState &b : banks)
        b.raa = b.raa > dec ? b.raa - dec : 0;
}

/**
 * Fold the logged ACTs into the recency list. A move-to-front list of
 * distinct rows orders them by their last activation, so its first k
 * entries are the first k distinct rows of (log newest-first, then the
 * previous list), however deep the list is kept beyond k. An RFM reads
 * only the first victimsPerRfm entries, so only those are kept.
 */
void
RfmEngine::fold(BankState &b)
{
    const unsigned keep = cfg.victimsPerRfm;
    scratch.clear();
    auto take = [&](std::uint64_t row) {
        if (std::find(scratch.begin(), scratch.end(), row) == scratch.end())
            scratch.push_back(row);
    };
    for (unsigned i = b.logged; i-- > 0 && scratch.size() < keep;)
        take(b.history[i]);
    for (std::size_t i = 0; i < b.recent.size() && scratch.size() < keep;
         ++i)
        take(b.recent[i]);
    std::swap(scratch, b.recent);
    b.logged = 0;
}

RfmAction
RfmEngine::issueRfm(std::uint32_t bank, BankState &b)
{
    // The RFM retires RAAIMT worth of activity.
    b.raa -= cfg.raaimt;
    RfmAction action;
    action.fired = true;
    ++rfms;
    // The device refreshes the neighbourhoods of the rows it saw
    // activated most recently — deterministic, so no pattern can
    // hide its true aggressors from it.
    fold(b);
    for (std::uint64_t r : b.recent)
        action.protect.push_back({bank, r});
    return action;
}

} // namespace rho
