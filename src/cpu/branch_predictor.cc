#include "cpu/branch_predictor.hh"

#include <algorithm>

namespace rho
{

BranchPredictor::BranchPredictor()
    : pht(kPhtMask + 1, 1), btb(kBtbMask + 1)
{
}

void
BranchPredictor::reset()
{
    std::fill(pht.begin(), pht.end(), 1);
    std::fill(btb.begin(), btb.end(), BtbEntry{});
    history = 0;
}

} // namespace rho
