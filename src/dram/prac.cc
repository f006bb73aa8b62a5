#include "dram/prac.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rho
{

PracEngine::PracEngine(const PracConfig &cfg_) : cfg(cfg_)
{
    if (cfg.enabled && cfg.threshold == 0)
        panic("PracEngine: threshold must be positive when enabled");
    if (cfg.enabled && cfg.aboSlots == 0)
        panic("PracEngine: aboSlots must be positive when enabled");
}

void
PracEngine::serviceHottest(std::uint32_t bank, std::vector<HotRow> &hot,
                           PracAlertAction &action) const
{
    std::sort(hot.begin(), hot.end(), [](const HotRow &a, const HotRow &b) {
        return a.count != b.count ? a.count > b.count : a.row < b.row;
    });
    std::size_t extra =
        std::min<std::size_t>(cfg.aboSlots - 1, hot.size());
    for (std::size_t i = 0; i < extra; ++i) {
        action.protect.push_back({bank, hot[i].row});
        *hot[i].counter = 0;
    }
}

} // namespace rho
