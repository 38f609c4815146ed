#include "sim/population.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flip {
namespace {

TEST(PopulationTest, StartsOpinionless) {
  Population pop(10);
  EXPECT_EQ(pop.size(), 10u);
  EXPECT_EQ(pop.opinionated(), 0u);
  for (AgentId a = 0; a < 10; ++a) {
    EXPECT_FALSE(pop.has_opinion(a));
  }
  EXPECT_EQ(pop.bias(Opinion::kOne), 0.0);
}

TEST(PopulationTest, RejectsTinyPopulation) {
  EXPECT_THROW(Population(1), std::invalid_argument);
}

TEST(PopulationTest, SetAndReadBack) {
  Population pop(4);
  pop.set_opinion(2, Opinion::kOne);
  EXPECT_TRUE(pop.has_opinion(2));
  EXPECT_EQ(pop.opinion(2), Opinion::kOne);
  EXPECT_EQ(pop.opinionated(), 1u);
  EXPECT_EQ(pop.count(Opinion::kOne), 1u);
  EXPECT_EQ(pop.count(Opinion::kZero), 0u);
}

TEST(PopulationTest, OverwriteKeepsCountsConsistent) {
  Population pop(4);
  pop.set_opinion(0, Opinion::kOne);
  pop.set_opinion(0, Opinion::kZero);
  EXPECT_EQ(pop.opinionated(), 1u);
  EXPECT_EQ(pop.count(Opinion::kOne), 0u);
  EXPECT_EQ(pop.count(Opinion::kZero), 1u);
  pop.set_opinion(0, Opinion::kOne);
  EXPECT_EQ(pop.count(Opinion::kOne), 1u);
}

TEST(PopulationTest, BiasMatchesDefinition) {
  // majority-bias = (A_B - A_notB) / (2 |A|), Section 1.3.1.
  Population pop(10);
  for (AgentId a = 0; a < 6; ++a) pop.set_opinion(a, Opinion::kOne);
  for (AgentId a = 6; a < 8; ++a) pop.set_opinion(a, Opinion::kZero);
  // 6 correct, 2 wrong, 8 opinionated: bias = (6-2)/(2*8) = 0.25.
  EXPECT_DOUBLE_EQ(pop.bias(Opinion::kOne), 0.25);
  EXPECT_DOUBLE_EQ(pop.bias(Opinion::kZero), -0.25);
}

TEST(PopulationTest, CorrectFractionIsOverAllAgents) {
  Population pop(10);
  pop.set_opinion(0, Opinion::kOne);
  pop.set_opinion(1, Opinion::kOne);
  EXPECT_DOUBLE_EQ(pop.correct_fraction(Opinion::kOne), 0.2);
}

TEST(PopulationTest, UnanimousRequiresEveryone) {
  Population pop(3);
  pop.set_opinion(0, Opinion::kOne);
  pop.set_opinion(1, Opinion::kOne);
  EXPECT_FALSE(pop.unanimous(Opinion::kOne));
  pop.set_opinion(2, Opinion::kOne);
  EXPECT_TRUE(pop.unanimous(Opinion::kOne));
  pop.set_opinion(2, Opinion::kZero);
  EXPECT_FALSE(pop.unanimous(Opinion::kOne));
  EXPECT_FALSE(pop.unanimous(Opinion::kZero));
}

TEST(PopulationTest, MaxBiasIsHalf) {
  Population pop(4);
  for (AgentId a = 0; a < 4; ++a) pop.set_opinion(a, Opinion::kOne);
  EXPECT_DOUBLE_EQ(pop.bias(Opinion::kOne), 0.5);
}

}  // namespace
}  // namespace flip
