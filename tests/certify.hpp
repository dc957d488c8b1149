// Shared test helpers: check a Skolem certificate through the production
// path.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/skolem_recorder.hpp"

namespace hqs {

/// Serialize @p certificate, re-parse it, and run the independent checker
/// — what `dqbf_check` does with the artifact.
inline ::testing::AssertionResult checksThroughProduction(const cert::Certificate& certificate)
{
    const std::string text = cert::toCertificateString(certificate);
    cert::Certificate parsed;
    std::string detail;
    const cert::CheckStatus st = cert::parseCertificateString(text, parsed, detail);
    if (st != cert::CheckStatus::Ok)
        return ::testing::AssertionFailure()
               << "parse failed: " << cert::toString(st) << " (" << detail << ")";
    const cert::CheckResult res = cert::checkCertificate(parsed);
    if (!res.ok())
        return ::testing::AssertionFailure()
               << "check failed: " << cert::toString(res.status) << " (" << res.detail
               << ")";
    return ::testing::AssertionSuccess();
}

/// Production-path verification (the pipeline `dqbf_solve --certify` +
/// `dqbf_check` exercise): extract the certificate artifact, then check it
/// as above.
inline ::testing::AssertionResult certifiesThroughProduction(
    const DqbfFormula& f, const AigSkolemCertificate& skolem)
{
    return checksThroughProduction(cert::extractCertificate(f, skolem));
}

} // namespace hqs
