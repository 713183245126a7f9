// Fixture: header-hygiene rules. No #pragma once anywhere in this
// file, so the file-level rule fires too.
// EXPECT-ANALYZE: header-pragma-once
// EXPECT-ANALYZE: include-relative
// EXPECT-ANALYZE: header-using-namespace

#include "../sim/time.hpp"

using namespace std;

namespace fixture {

inline int
fixtureValue()
{
    return 42;
}

} // namespace fixture
