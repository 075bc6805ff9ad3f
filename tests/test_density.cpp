/**
 * @file
 * Density-matrix substrate tests: channel validity, ququart gate truth
 * tables, and the qualitative claims of the Section 3.3 study (points
 * A, B, C of Fig. 8).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "density/channels.h"
#include "density/density_matrix.h"
#include "density/stabilizer_study.h"

namespace qec
{
namespace
{

TEST(Density, InitialStatePopulations)
{
    DensityMatrix rho({2, 0});
    EXPECT_NEAR(rho.population(0, 2), 1.0, 1e-12);
    EXPECT_NEAR(rho.population(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.leakProbability(0), 1.0, 1e-12);
    EXPECT_NEAR(rho.leakProbability(1), 0.0, 1e-12);
}

TEST(Density, ChannelsAreTracePreserving)
{
    EXPECT_TRUE(isTracePreserving({cnotQuquart()}, 16));
    EXPECT_TRUE(isTracePreserving({leakTransportUnitary()}, 16));
    EXPECT_TRUE(isTracePreserving(leakTransportChannel(0.1), 16));
    EXPECT_TRUE(isTracePreserving({rxConditioned(0.65 * M_PI)}, 16));
    EXPECT_TRUE(isTracePreserving(leakInjectChannel(1e-3), 4));
    EXPECT_TRUE(isTracePreserving(seepChannel(1e-3), 4));
}

TEST(Density, CnotTruthTable)
{
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            DensityMatrix rho({a, b});
            rho.applyUnitary2(0, 1, cnotQuquart());
            EXPECT_NEAR(rho.population(0, a), 1.0, 1e-12);
            EXPECT_NEAR(rho.population(1, a == 1 ? (b ^ 1) : b), 1.0,
                        1e-12);
        }
    }
}

TEST(Density, CnotIgnoresLeakedControl)
{
    DensityMatrix rho({2, 1});
    rho.applyUnitary2(0, 1, cnotQuquart());
    EXPECT_NEAR(rho.population(0, 2), 1.0, 1e-12);
    EXPECT_NEAR(rho.population(1, 1), 1.0, 1e-12);
}

TEST(Density, TransportChannelMovesLeakage)
{
    DensityMatrix rho({2, 0});
    rho.applyKraus2(0, 1, leakTransportChannel(0.25));
    EXPECT_NEAR(rho.leakProbability(0), 0.75, 1e-9);
    EXPECT_NEAR(rho.leakProbability(1), 0.25, 1e-9);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
}

TEST(Density, TransportInertWhenBothLeaked)
{
    DensityMatrix rho({2, 3});
    rho.applyKraus2(0, 1, leakTransportChannel(0.5));
    EXPECT_NEAR(rho.leakProbability(0), 1.0, 1e-9);
    EXPECT_NEAR(rho.leakProbability(1), 1.0, 1e-9);
}

TEST(Density, RxConditionedOnlyActsNextToLeakage)
{
    // Unleaked pair: identity.
    DensityMatrix clean({0, 1});
    clean.applyUnitary2(0, 1, rxConditioned(0.65 * M_PI));
    EXPECT_NEAR(clean.population(1, 1), 1.0, 1e-9);

    // Leaked control: partner rotates.
    DensityMatrix dirty({2, 0});
    dirty.applyUnitary2(0, 1, rxConditioned(0.65 * M_PI));
    const double p1 = dirty.population(1, 1);
    EXPECT_NEAR(p1, std::pow(std::sin(0.65 * M_PI / 2.0), 2.0), 1e-9);
}

TEST(Density, InjectChannelHeatsExcitedState)
{
    DensityMatrix rho({1});
    rho.applyKraus1(0, leakInjectChannel(0.2));
    EXPECT_NEAR(rho.population(0, 2), 0.2, 1e-9);
    EXPECT_NEAR(rho.population(0, 1), 0.8, 1e-9);

    DensityMatrix ground({0});
    ground.applyKraus1(0, leakInjectChannel(0.2));
    EXPECT_NEAR(ground.population(0, 0), 1.0, 1e-9);
}

TEST(Density, SeepChannelDecaysLeakage)
{
    DensityMatrix rho({2});
    rho.applyKraus1(0, seepChannel(0.3));
    EXPECT_NEAR(rho.leakProbability(0), 0.7, 1e-9);
    EXPECT_NEAR(rho.population(0, 1), 0.3, 1e-9);
}

TEST(Density, ReportZeroBlendsLeakedPopulation)
{
    DensityMatrix rho({2});
    EXPECT_NEAR(rho.probReportZero(0), 0.5, 1e-12);
    DensityMatrix zero({0});
    EXPECT_NEAR(zero.probReportZero(0), 1.0, 1e-12);
}

TEST(Density, HermiticityPreservedThroughStudySteps)
{
    DensityMatrix rho({2, 0});
    rho.applyUnitary2(0, 1, cnotQuquart());
    rho.applyKraus2(0, 1, leakTransportChannel(0.1));
    rho.applyUnitary2(0, 1, rxConditioned(0.65 * M_PI));
    rho.applyKraus1(0, leakInjectChannel(1e-4));
    EXPECT_LT(rho.hermiticityError(), 1e-10);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
}

class StudyFixture : public ::testing::Test
{
  protected:
    /** The study is deterministic and dominates this binary's run
     *  time: compute it once for every test of the suite. */
    static void
    SetUpTestSuite()
    {
        steps_ = runStabilizerLeakageStudy();
    }

    const StudyStep &
    marker(const std::string &m) const
    {
        for (const auto &s : steps_) {
            if (s.marker == m)
                return s;
        }
        ADD_FAILURE() << "marker " << m << " missing";
        return steps_.front();
    }

    static std::vector<StudyStep> steps_;
};

std::vector<StudyStep> StudyFixture::steps_;

TEST_F(StudyFixture, HasAllMarkers)
{
    EXPECT_NO_FATAL_FAILURE(marker("A"));
    EXPECT_NO_FATAL_FAILURE(marker("B"));
    EXPECT_NO_FATAL_FAILURE(marker("C"));
    EXPECT_GE(steps_.size(), 14u);
}

TEST_F(StudyFixture, TraceStaysNormalized)
{
    // Snapshots expose probabilities; they must stay in [0, 1].
    for (const auto &s : steps_) {
        EXPECT_GE(s.leakParity, -1e-9);
        EXPECT_LE(s.leakParity, 1.0 + 1e-9);
        EXPECT_GE(s.reportZeroParity, -1e-9);
        EXPECT_LE(s.reportZeroParity, 1.0 + 1e-9);
    }
}

TEST_F(StudyFixture, PointA_LrcTransportsLeakageOntoParity)
{
    // "At point A ... the parity qubit P has significantly leaked due
    // to interactions with q0, confirming that LRCs do facilitate
    // leakage transport."
    EXPECT_GT(marker("A").leakParity, 0.2);
    EXPECT_GT(marker("A").leakParity, steps_.front().leakParity + 0.2);
}

TEST_F(StudyFixture, PointB_MeasurementDisturbedByLeakedCnot)
{
    // "If P was measured at this point, we would get a random
    // outcome" — the report-0 probability has left ~1.0.
    EXPECT_LT(marker("B").reportZeroParity, 0.9);
    EXPECT_GT(marker("B").reportZeroParity, 0.1);
}

TEST_F(StudyFixture, PointC_OutcomeNearRandom)
{
    // Leakage has randomized the check: the report-0 probability sits
    // near 1/2 instead of near the ideal 1.0.
    const double p0 = marker("C").reportZeroParity;
    EXPECT_GT(p0, 0.25);
    EXPECT_LT(p0, 0.85);
}

TEST_F(StudyFixture, LeakageSpreadsToOtherDataInRound2)
{
    // After the no-LRC round, the other data qubits have picked up
    // leakage from the leaked parity qubit.
    const auto &last = steps_.back();
    const double spread =
        last.leakData[1] + last.leakData[2] + last.leakData[3];
    EXPECT_GT(spread, 0.005);
}

TEST_F(StudyFixture, InitialStateMatchesFig7)
{
    const auto &first = steps_.front();
    EXPECT_NEAR(first.leakData[0], 1.0, 1e-9);
    EXPECT_NEAR(first.leakParity, 0.0, 1e-9);
}

} // namespace
} // namespace qec
