#include "src/runtime/session.hpp"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/base/fault.hpp"
#include "src/cert/certificate.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

namespace {

/// Parse one full-string integer; SessionError mentioning @p what otherwise.
int parseIntToken(const std::string& tok, const char* what)
{
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || errno != 0 ||
        v > 2'000'000'000L || v < -2'000'000'000L) {
        throw SessionError(std::string("malformed ") + what + " \"" + tok + "\"");
    }
    return static_cast<int>(v);
}

/// DIMACS clause stream "1 -2 0 3 0" -> clauses.  Every clause must be
/// 0-terminated; an explicit "0" alone is the (unsatisfiable) empty clause.
std::vector<Clause> parseDeltaClauses(const std::string& text)
{
    std::vector<Clause> out;
    Clause current;
    bool open = false;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
        const int v = parseIntToken(tok, "clause literal");
        if (v == 0) {
            out.push_back(current);
            current = Clause();
            open = false;
        } else {
            current.push(Lit::fromDimacs(v));
            open = true;
        }
    }
    if (open) throw SessionError("clause group text must terminate every clause with 0");
    return out;
}

std::vector<Lit> parseAssumptions(const std::string& text)
{
    std::vector<Lit> out;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
        const int v = parseIntToken(tok, "assumption literal");
        if (v == 0) throw SessionError("assumption literals must be non-zero");
        out.push_back(Lit::fromDimacs(v));
    }
    return out;
}

/// The gate name of a `name = op(args)` DQCIR line ("" when the line is
/// not a gate definition).
std::string gateNameOf(const std::string& line)
{
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return std::string();
    std::size_t b = 0;
    while (b < eq && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
    std::size_t e = eq;
    while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
    const std::string name = line.substr(b, e - b);
    if (name.empty() || name.find('(') != std::string::npos) return std::string();
    return name;
}

std::vector<std::string> splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else if (c != '\r') {
            cur.push_back(c);
        }
    }
    if (!cur.empty()) lines.push_back(cur);
    return lines;
}

std::string joinLines(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(std::string id, const std::string& text, const std::string& format)
    : id_(std::move(id))
{
    const bool circuit =
        format == "dqcir" || (format.empty() && looksLikeDqcir(text));
    if (circuit) {
        base_ = lowerDqcir(parseDqcirString(text));
        circuitLines_ = splitLines(text);
    } else {
        base_ = parseDqdimacsString(text);
    }
}

void Session::applyDelta(const SessionDelta& delta)
{
    if (delta.empty()) throw SessionError("empty delta");

    // Stage everything first; nothing below may touch member state until the
    // fault checkpoint has passed, so an injected fault (or a client
    // mistake) unwinds with the session unchanged.
    std::vector<std::string> stagedLines;
    ParsedQdimacs stagedBase;
    bool haveGate = false;
    if (!delta.gate.empty()) {
        if (!circuitBased())
            throw SessionError("gate replacement requires a DQCIR session");
        const std::string name = gateNameOf(delta.gate);
        if (name.empty())
            throw SessionError("gate replacement must look like \"name = op(args)\"");
        stagedLines = circuitLines_;
        bool found = false;
        for (std::string& line : stagedLines) {
            if (gateNameOf(line) == name) {
                line = delta.gate;
                found = true;
                break;
            }
        }
        if (!found) throw SessionError("unknown gate \"" + name + "\"");
        try {
            stagedBase = lowerDqcir(parseDqcirString(joinLines(stagedLines)));
        } catch (const ParseError& e) {
            throw SessionError(std::string("replacement gate does not parse: ") +
                               e.what());
        }
        haveGate = true;
    }

    std::size_t retractIndex = groups_.size();
    if (!delta.retractGroup.empty()) {
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            if (groups_[i].first == delta.retractGroup) {
                retractIndex = i;
                break;
            }
        }
        if (retractIndex == groups_.size())
            throw SessionError("unknown clause group \"" + delta.retractGroup + "\"");
    }

    std::vector<Clause> stagedClauses;
    bool haveGroup = false;
    if (!delta.addGroup.empty() || !delta.addClauses.empty()) {
        if (delta.addGroup.empty())
            throw SessionError("clauses without a clause group name");
        for (const auto& [name, clauses] : groups_) {
            if (name == delta.addGroup && name != delta.retractGroup)
                throw SessionError("clause group \"" + name + "\" already active");
        }
        stagedClauses = parseDeltaClauses(delta.addClauses);
        haveGroup = true;
    }

    fault::checkpoint("session-delta");

    // Commit.  The component memo survives every delta: entries are keyed
    // by canonical component content, which never goes stale.
    if (haveGate) {
        circuitLines_ = std::move(stagedLines);
        base_ = std::move(stagedBase);
    }
    if (retractIndex < groups_.size())
        groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(retractIndex));
    if (haveGroup) groups_.emplace_back(delta.addGroup, std::move(stagedClauses));
    ++deltasApplied_;
    OBS_COUNT("session.delta_solves", 1);
}

ParsedQdimacs Session::effectiveParsed(const std::vector<Lit>& assumptions) const
{
    ParsedQdimacs f = base_;
    for (const auto& [name, clauses] : groups_) {
        (void)name;
        for (const Clause& c : clauses) f.matrix.addClause(c);
    }
    for (const Lit l : assumptions) {
        f.matrix.ensureVars(l.var() + 1);
        f.matrix.addClause(Clause({l}));
    }
    return f;
}

SessionSolveOutcome Session::solve(const SessionSolveOptions& opts,
                                   const std::string& assume)
{
    const std::vector<Lit> assumptions = parseAssumptions(assume);
    SessionSolveOutcome out;
    out.usedAssumptions = !assumptions.empty();
    if (out.usedAssumptions) OBS_COUNT("cache.bypass.session", 1);
    out.effective = effectiveParsed(assumptions);

    HqsOptions hopts;
    hopts.deadline = opts.deadline;
    hopts.nodeLimit = opts.nodeLimit;
    hopts.computeSkolem = opts.certify;
    const ComponentSolveOutcome solved = solveByComponents(out.effective, hopts, &memo_);
    out.result = solved.result;
    out.components = solved.components;
    out.reusedComponents = solved.reusedComponents;
    out.coneNodesSaved = solved.coneNodesSaved;
    if (solved.certificate) out.certificate = cert::toCertificateString(*solved.certificate);

    if (out.reusedComponents > 0) OBS_COUNT("session.reuse", 1);
    if (out.coneNodesSaved > 0)
        OBS_COUNT("session.cone_nodes_saved",
                  static_cast<std::uint64_t>(out.coneNodesSaved));
    return out;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(SessionManagerOptions opts) : opts_(std::move(opts)) {}

std::int64_t SessionManager::nowMs() const
{
    if (opts_.clock) return opts_.clock();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void SessionManager::expireLocked(std::int64_t now)
{
    if (opts_.ttlSeconds <= 0) return;
    const auto ttlMs = static_cast<std::int64_t>(opts_.ttlSeconds * 1e3);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (now - it->second.lastUsedMs > ttlMs) {
            it = sessions_.erase(it);
            ++stats_.evicted;
            OBS_COUNT("session.evicted", 1);
        } else {
            ++it;
        }
    }
}

void SessionManager::evictOverBudgetLocked()
{
    if (opts_.maxSessions == 0) return;
    while (sessions_.size() > opts_.maxSessions) {
        auto oldest = sessions_.begin();
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
            if (it->second.lastUsedMs < oldest->second.lastUsedMs) oldest = it;
        }
        sessions_.erase(oldest);
        ++stats_.evicted;
        OBS_COUNT("session.evicted", 1);
    }
}

std::string SessionManager::open(const std::string& text, const std::string& format,
                                 std::uint64_t owner, std::string* error)
{
    std::shared_ptr<Session> session;
    std::string id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = "s-" + std::to_string(nextId_++);
    }
    try {
        session = std::make_shared<Session>(id, text, format);
    } catch (const std::exception& e) {
        if (error) *error = e.what();
        return std::string();
    }
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = nowMs();
    expireLocked(now);
    sessions_[id] = Entry{std::move(session), owner, now};
    evictOverBudgetLocked();
    ++stats_.opened;
    OBS_COUNT("session.open", 1);
    return id;
}

std::shared_ptr<Session> SessionManager::find(const std::string& id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = nowMs();
    expireLocked(now);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return nullptr;
    it->second.lastUsedMs = now;
    return it->second.session;
}

bool SessionManager::close(const std::string& id)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    sessions_.erase(it);
    ++stats_.closed;
    return true;
}

std::size_t SessionManager::closeOwned(std::uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t closed = 0;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second.owner == owner) {
            it = sessions_.erase(it);
            ++closed;
        } else {
            ++it;
        }
    }
    stats_.closed += closed;
    return closed;
}

std::size_t SessionManager::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
}

SessionManagerStats SessionManager::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace hqs
