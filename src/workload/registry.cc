/**
 * @file
 * Workload registry: the suite tables, concatenated in suite order, and
 * name lookup that builds only the named workload.
 */

#include "workload/suites.hh"

#include <vector>

#include "workload/detail.hh"

namespace pka::workload
{

std::span<const WorkloadEntry>
workloadRegistry()
{
    // Built on first use, not at process start; holds names and function
    // pointers only.
    static const std::vector<WorkloadEntry> all = [] {
        std::vector<WorkloadEntry> v;
        for (auto suite :
             {detail::rodiniaEntries(), detail::parboilEntries(),
              detail::polybenchEntries(), detail::cutlassEntries(),
              detail::deepbenchEntries(), detail::mlperfEntries()})
            v.insert(v.end(), suite.begin(), suite.end());
        return v;
    }();
    return all;
}

std::vector<Workload>
allWorkloads(const GenOptions &opts)
{
    std::vector<Workload> out;
    out.reserve(workloadRegistry().size());
    for (const WorkloadEntry &e : workloadRegistry())
        out.push_back(e.build(e.name, opts));
    return out;
}

std::optional<Workload>
buildWorkload(const std::string &name, const GenOptions &opts)
{
    for (const WorkloadEntry &e : workloadRegistry())
        if (name == e.name)
            return e.build(name, opts);
    return std::nullopt;
}

bool
isProfilerSensitive(const std::string &name)
{
    if (name == "myocyte")
        return true;
    // Non-tensor-core DeepBench convolution training inputs.
    return name.rfind("conv_train_in", 0) == 0;
}

} // namespace pka::workload
