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
        cfg.recencyDepth = 24;
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

RfmAction
RfmEngine::observeAct(std::uint32_t bank, std::uint64_t row)
{
    RfmAction action;
    if (!cfg.enabled)
        return action;

    BankState &b = banks[bank];
    ++b.increments;

    // Recency list: move-to-front of distinct rows.
    auto it = std::find(b.recent.begin(), b.recent.end(), row);
    if (it != b.recent.end())
        b.recent.erase(it);
    b.recent.insert(b.recent.begin(), row);
    if (b.recent.size() > cfg.recencyDepth)
        b.recent.pop_back();

    // The controller issues the owed RFM as soon as RAA reaches
    // RAAIMT; the RFM retires RAAIMT worth of activity.
    if (++b.raa < cfg.raaimt)
        return action;
    b.raa -= cfg.raaimt;
    action.fired = true;
    ++rfms;
    // The device refreshes the neighbourhoods of the rows it saw
    // activated most recently — deterministic, so no pattern can
    // hide its true aggressors from it.
    unsigned n =
        std::min<unsigned>(cfg.victimsPerRfm, b.recent.size());
    for (unsigned i = 0; i < n; ++i)
        action.protect.push_back({bank, b.recent[i]});
    return action;
}

} // namespace rho
