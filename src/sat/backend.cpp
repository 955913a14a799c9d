#include "sat/backend.hpp"

#include "sat/ipasir_backend.hpp"
#include "sat/solver.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace bestagon::sat
{

BackendSelection backend_selection_from_env(BackendSelection fallback)
{
    // read once at backend selection, before any solver thread exists; nothing
    // in the process calls setenv
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("BESTAGON_SAT_BACKEND");
    if (env == nullptr)
    {
        return fallback;
    }
    const std::string_view value{env};
    if (value == "internal")
    {
        fallback.kind = BackendKind::internal;
    }
    else if (value.starts_with("ipasir:"))
    {
        fallback.kind = BackendKind::ipasir;
        fallback.ipasir_library = std::string{value.substr(7)};
    }
    else
    {
        throw std::invalid_argument{"BESTAGON_SAT_BACKEND=\"" + std::string{value} +
                                    "\" is not a SAT backend; accepted values: \"internal\", "
                                    "\"ipasir:<path>\""};
    }
    return fallback;
}

std::unique_ptr<SatBackend> make_sat_backend(const BackendSelection& selection)
{
    BackendSelection resolved = selection;
    if (resolved.kind == BackendKind::automatic)
    {
        resolved.kind = BackendKind::internal;
        resolved = backend_selection_from_env(resolved);
    }
    if (resolved.kind == BackendKind::ipasir)
    {
        return std::make_unique<IpasirBackend>(resolved.ipasir_library);
    }
    return std::make_unique<Solver>();
}

}  // namespace bestagon::sat
