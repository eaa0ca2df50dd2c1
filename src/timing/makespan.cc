#include "timing/makespan.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace rdmajoin {

double LptMakespan(const std::vector<double>& task_seconds, uint32_t workers) {
  assert(workers > 0);
  if (task_seconds.empty()) return 0.0;
  std::vector<double> sorted = task_seconds;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  // Each task goes to the least-loaded worker. Workers with tied loads hold
  // equal values, so which of them takes the task cannot change the
  // makespan; a linear argmin over the few workers beats a heap.
  std::vector<double> loads(workers, 0.0);
  double makespan = 0.0;
  for (double t : sorted) {
    double& load = *std::min_element(loads.begin(), loads.end());
    load += t;
    makespan = std::max(makespan, load);
  }
  return makespan;
}

}  // namespace rdmajoin
