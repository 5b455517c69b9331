#include "obs/build_info.hh"

#include <mutex>
#include <sstream>

#include "obs/json.hh"
#include "obs/version.hh"

namespace fa3c::obs {

namespace {

std::mutex backendMutex;

std::string &
backendKind()
{
    static std::string *kind = new std::string("unset");
    return *kind;
}

} // namespace

void
setActiveBackend(std::string_view kind)
{
    std::lock_guard<std::mutex> lock(backendMutex);
    backendKind().assign(kind);
}

std::string
activeBackend()
{
    std::lock_guard<std::mutex> lock(backendMutex);
    return backendKind();
}

std::string
buildInfoJson()
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "fa3c.build.v1");
    json.field("git_sha", FA3C_GIT_SHA);
    json.field("build_type", FA3C_BUILD_TYPE);
    json.field("compiler", FA3C_COMPILER);
    json.field("backend", activeBackend());
    json.endObject();
    os << '\n';
    return os.str();
}

} // namespace fa3c::obs
