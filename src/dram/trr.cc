#include "dram/trr.hh"

#include <algorithm>

namespace rho
{

TrrSampler::TrrSampler(const TrrConfig &cfg_, std::uint32_t num_banks)
    : cfg(cfg_), trigger(std::max<std::uint32_t>(cfg_.matchThreshold, 1)),
      tables(num_banks), rng(cfg_.seed), sampleCoin(cfg_.sampleProb),
      ptrrCoin(cfg_.ptrrSampleProb)
{
}

void
TrrSampler::reset()
{
    for (auto &table : tables)
        table.clear();
    rng = Rng(cfg.seed);
    issued = 0;
    armed = 0;
}

void
TrrSampler::recordSample(std::uint32_t bank, std::uint64_t row, Ns now)
{
    (void)now; // only read when tracing is compiled in
    auto &table = tables[bank];
    for (auto &e : table) {
        if (e.row == row) {
            armed += ++e.count == trigger;
            RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row,
                      e.count);
            return;
        }
    }
    if (table.size() < cfg.counters) {
        table.push_back({row, 1});
        armed += trigger == 1;
        RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 1);
        return;
    }
    // Misra-Gries: a non-resident sample decrements every counter.
    // This is the churn non-uniform patterns exploit: enough distinct
    // decoy rows keep true aggressor counts pinned near zero.
    RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 0);
    for (auto &e : table) {
        if (e.count > 0)
            armed -= e.count-- == trigger;
    }
    std::erase_if(table, [&](const Entry &e) {
        if (e.count != 0)
            return false;
        RHO_TRACE(tracer, now, EventKind::TrrEvict, 0, bank, e.row, 0);
        return true;
    });
}

std::vector<TrrTarget>
TrrSampler::issueTargets(Ns now)
{
    (void)now;
    std::vector<TrrTarget> out;

    // Gather rows over threshold across banks, strongest first.
    struct Cand { std::uint32_t bank; std::size_t idx; std::uint32_t cnt; };
    std::vector<Cand> cands;
    for (std::uint32_t b = 0; b < tables.size(); ++b) {
        for (std::size_t i = 0; i < tables[b].size(); ++i) {
            if (tables[b][i].count >= trigger)
                cands.push_back({b, i, tables[b][i].count});
        }
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) { return a.cnt > b.cnt; });

    std::vector<std::pair<std::uint32_t, std::uint64_t>> to_remove;
    for (const auto &c : cands) {
        if (out.size() >= cfg.maxRefreshesPerTick)
            break;
        out.push_back({c.bank, tables[c.bank][c.idx].row});
        to_remove.push_back({c.bank, tables[c.bank][c.idx].row});
    }
    for (auto [b, row] : to_remove) {
        std::erase_if(tables[b],
                      [row](const Entry &e) { return e.row == row; });
    }
    armed -= out.size();
    issued += out.size();
    return out;
}

} // namespace rho
