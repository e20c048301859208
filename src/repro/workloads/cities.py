"""Embedded US city coordinates and populations.

The Live Local restaurant directory is dense around metropolitan areas;
we reproduce that skew by scattering synthetic sensors around the
centers below, weighted by population.  Coordinates are approximate
city centers (sufficient for a synthetic workload); populations are
mid-2000s metro-scale figures matching the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class City:
    name: str
    lat: float
    lon: float
    population: int


CITIES: tuple[City, ...] = (
    City("New York", 40.7128, -74.0060, 8_200_000),
    City("Los Angeles", 34.0522, -118.2437, 3_800_000),
    City("Chicago", 41.8781, -87.6298, 2_850_000),
    City("Houston", 29.7604, -95.3698, 2_100_000),
    City("Phoenix", 33.4484, -112.0740, 1_500_000),
    City("Philadelphia", 39.9526, -75.1652, 1_500_000),
    City("San Antonio", 29.4241, -98.4936, 1_300_000),
    City("San Diego", 32.7157, -117.1611, 1_280_000),
    City("Dallas", 32.7767, -96.7970, 1_230_000),
    City("San Jose", 37.3382, -121.8863, 940_000),
    City("Detroit", 42.3314, -83.0458, 900_000),
    City("Indianapolis", 39.7684, -86.1581, 790_000),
    City("Jacksonville", 30.3322, -81.6557, 780_000),
    City("San Francisco", 37.7749, -122.4194, 760_000),
    City("Columbus", 39.9612, -82.9988, 730_000),
    City("Austin", 30.2672, -97.7431, 690_000),
    City("Memphis", 35.1495, -90.0490, 670_000),
    City("Fort Worth", 32.7555, -97.3308, 620_000),
    City("Baltimore", 39.2904, -76.6122, 640_000),
    City("Charlotte", 35.2271, -80.8431, 610_000),
    City("El Paso", 31.7619, -106.4850, 600_000),
    City("Boston", 42.3601, -71.0589, 590_000),
    City("Seattle", 47.6062, -122.3321, 570_000),
    City("Washington", 38.9072, -77.0369, 550_000),
    City("Milwaukee", 43.0389, -87.9065, 590_000),
    City("Denver", 39.7392, -104.9903, 560_000),
    City("Louisville", 38.2527, -85.7585, 550_000),
    City("Las Vegas", 36.1699, -115.1398, 540_000),
    City("Nashville", 36.1627, -86.7816, 550_000),
    City("Oklahoma City", 35.4676, -97.5164, 530_000),
    City("Portland", 45.5152, -122.6784, 530_000),
    City("Tucson", 32.2226, -110.9747, 510_000),
    City("Albuquerque", 35.0844, -106.6504, 480_000),
    City("Atlanta", 33.7490, -84.3880, 470_000),
    City("Fresno", 36.7378, -119.7871, 450_000),
    City("Sacramento", 38.5816, -121.4944, 450_000),
    City("Mesa", 33.4152, -111.8315, 440_000),
    City("Kansas City", 39.0997, -94.5786, 440_000),
    City("Cleveland", 41.4993, -81.6944, 460_000),
    City("Virginia Beach", 36.8529, -75.9780, 430_000),
    City("Omaha", 41.2565, -95.9345, 410_000),
    City("Miami", 25.7617, -80.1918, 380_000),
    City("Oakland", 37.8044, -122.2712, 400_000),
    City("Minneapolis", 44.9778, -93.2650, 380_000),
    City("Tulsa", 36.1540, -95.9928, 380_000),
    City("Honolulu", 21.3069, -157.8583, 370_000),
    City("Colorado Springs", 38.8339, -104.8214, 370_000),
    City("Arlington", 32.7357, -97.1081, 360_000),
    City("Wichita", 37.6872, -97.3301, 350_000),
    City("St. Louis", 38.6270, -90.1994, 350_000),
    City("Tampa", 27.9506, -82.4572, 320_000),
    City("Santa Ana", 33.7455, -117.8677, 340_000),
    City("Anaheim", 33.8366, -117.9143, 330_000),
    City("Cincinnati", 39.1031, -84.5120, 330_000),
    City("Pittsburgh", 40.4406, -79.9959, 320_000),
    City("Bakersfield", 35.3733, -119.0187, 290_000),
    City("Aurora", 39.7294, -104.8319, 290_000),
    City("Toledo", 41.6528, -83.5379, 300_000),
    City("Riverside", 33.9533, -117.3962, 280_000),
    City("Stockton", 37.9577, -121.2908, 280_000),
    City("Corpus Christi", 27.8006, -97.3964, 280_000),
    City("Newark", 40.7357, -74.1724, 280_000),
    City("Raleigh", 35.7796, -78.6382, 330_000),
    City("Buffalo", 42.8864, -78.8784, 280_000),
    City("Anchorage", 61.2181, -149.9003, 270_000),
    City("Spokane", 47.6588, -117.4260, 200_000),
    City("Tacoma", 47.2529, -122.4443, 195_000),
    City("Boise", 43.6150, -116.2023, 190_000),
    City("Salt Lake City", 40.7608, -111.8910, 180_000),
    City("New Orleans", 29.9511, -90.0715, 450_000),
)
