#include "common/batched_sampler.h"

#include <cmath>

namespace qla {

double
geometricInvLog2q(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return 1.0 / (std::log1p(-p) * 1.4426950408889634);
}

} // namespace qla
